// Package tile provides the dense matrix tile that flows through the
// linear-algebra graphs, with serialization (archive and gather) and the
// phantom form used by virtual-time runs: a tile that carries its shape
// but no data, whose wire size and copy charges still reflect the real
// payload so the simulator's communication and memcpy costs are faithful.
package tile

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/pool"
	"repro/internal/serde"
)

// Tile is a dense row-major matrix block.
type Tile struct {
	Rows, Cols int
	// Data is the row-major payload; nil marks a phantom tile.
	Data []float64
	// viewed marks a tile decoded as a receive view: Data aliases pooled
	// receive memory that stays in the recv-view ledger until the first
	// EndViewLease (workers sharing the tile may race to call it).
	viewed atomic.Bool
}

// New allocates a zeroed tile.
func New(rows, cols int) *Tile {
	return &Tile{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// tilePools recycles whole tiles (struct and payload together, so a
// Get/Put cycle allocates nothing) keyed by the payload's size class.
// Runtime-created tiles — Clone copies, codec decodes —
// come from here; Release returns them. Tiles built with New are not
// pooled unless explicitly Released into a pool-compatible class.
var tilePools [pool.NumF64Classes]sync.Pool

// get returns a pooled tile of the given shape with undefined contents.
func get(rows, cols int) *Tile {
	n := rows * cols
	cls, ok := pool.F64ClassFor(n)
	if !ok {
		return &Tile{Rows: rows, Cols: cols, Data: make([]float64, n)}
	}
	if v := tilePools[cls].Get(); v != nil {
		t := v.(*Tile)
		t.Rows, t.Cols = rows, cols
		t.Data = t.Data[:n]
		return t
	}
	return &Tile{Rows: rows, Cols: cols, Data: make([]float64, n, pool.F64ClassCap(cls))}
}

// NewPooled returns a zeroed tile drawn from the tile pool; pair with
// Release when the tile's lifetime is known.
func NewPooled(rows, cols int) *Tile {
	t := get(rows, cols)
	clear(t.Data)
	return t
}

// Release returns a tile to the pool. The caller must own the tile
// outright and must not touch it afterwards. Tiles whose payload capacity
// is not an exact pool class (e.g. built by New with a non-power-of-two
// area) are left to the garbage collector.
func (t *Tile) Release() {
	if t == nil || t.Data == nil {
		return
	}
	t.EndViewLease()
	c := cap(t.Data)
	cls, ok := pool.F64ClassFor(c)
	if !ok || pool.F64ClassCap(cls) != c {
		return
	}
	t.Data = t.Data[:c]
	tilePools[cls].Put(t)
}

// EndViewLease implements serde.ViewLease: it retires a scatter-decoded
// tile's recv-view ledger entry, once however many callers race — Release,
// and each worker the runtime hands the tile and its payload to outright.
func (t *Tile) EndViewLease() {
	if t != nil && t.viewed.Swap(false) {
		serde.NoteViewEnd()
	}
}

// Phantom builds a shape-only tile for virtual-time runs.
func Phantom(rows, cols int) *Tile {
	return &Tile{Rows: rows, Cols: cols}
}

// IsPhantom reports whether the tile carries no payload.
func (t *Tile) IsPhantom() bool { return t.Data == nil }

// At returns element (i, j).
func (t *Tile) At(i, j int) float64 { return t.Data[i*t.Cols+j] }

// Set assigns element (i, j).
func (t *Tile) Set(i, j int, v float64) { t.Data[i*t.Cols+j] = v }

// Add accumulates v into element (i, j).
func (t *Tile) Add(i, j int, v float64) { t.Data[i*t.Cols+j] += v }

// PayloadSize returns the payload size in bytes (also for phantoms).
func (t *Tile) PayloadSize() int { return 8 * t.Rows * t.Cols }

// Clone deep-copies the tile; the copy is drawn from the tile pool (give
// it back with Release when its lifetime is known). A phantom's clone is
// another phantom of the same shape.
func (t *Tile) Clone() *Tile {
	if t.Data == nil {
		return &Tile{Rows: t.Rows, Cols: t.Cols}
	}
	c := get(t.Rows, t.Cols)
	copy(c.Data, t.Data)
	return c
}

// Equal reports element-wise equality within eps.
func (t *Tile) Equal(o *Tile, eps float64) bool {
	if t.Rows != o.Rows || t.Cols != o.Cols || len(t.Data) != len(o.Data) {
		return false
	}
	for i := range t.Data {
		if math.Abs(t.Data[i]-o.Data[i]) > eps {
			return false
		}
	}
	return true
}

// FrobeniusNorm returns sqrt(Σ aᵢⱼ²).
func (t *Tile) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

func (t *Tile) String() string {
	if t.IsPhantom() {
		return fmt.Sprintf("Tile(%dx%d, phantom)", t.Rows, t.Cols)
	}
	return fmt.Sprintf("Tile(%dx%d)", t.Rows, t.Cols)
}

// PayloadBytes implements serde.SplitMD (Fig. 4: the MatrixTile example).
// On the engine's fabrics the Gather/Scatter pair below is the protocol's
// counterpart: the shape travels eagerly, the payload lands in place.
func (t *Tile) PayloadBytes() int { return t.PayloadSize() }

func init() {
	serde.Register(serde.FuncCodec[*Tile]{
		Enc: func(b *serde.Buffer, t *Tile) {
			b.PutVarint(int64(t.Rows))
			b.PutVarint(int64(t.Cols))
			b.PutBool(t.Data != nil)
			if t.Data != nil {
				for _, v := range t.Data {
					b.PutF64(v)
				}
			}
		},
		Dec: func(b *serde.Buffer) *Tile {
			rows := int(b.Varint())
			cols := int(b.Varint())
			if rows < 0 || cols < 0 {
				panic(fmt.Sprintf("tile: header records a %dx%d tile", rows, cols))
			}
			if !b.Bool() {
				return Phantom(rows, cols)
			}
			// The shape is the sender's claim: its payload must fit in what
			// is left to read before anything is sized by it (the division
			// catches a product that overflowed into range).
			if cols > 0 && rows > b.Remaining()/8/cols {
				panic(fmt.Sprintf("tile: header records a %dx%d tile over %d payload bytes", rows, cols, b.Remaining()))
			}
			// Pooled payload; every element is overwritten below.
			t := get(rows, cols)
			for i := range t.Data {
				t.Data[i] = b.F64()
			}
			return t
		},
		// WireSize reports the modeled payload even for phantoms so
		// virtual-time communication costs match real transfers.
		Size: func(t *Tile) int { return 16 + t.PayloadSize() },
		Copy: func(t *Tile) *Tile { return t.Clone() },
		// Zero-copy wire path: the header carries only the shape, the
		// payload rides as one segment referencing t.Data. Phantoms
		// decline — they have no payload memory to reference, and the
		// simulator charges their modeled bytes in its own cost branch.
		Gather: func(hdr *serde.Buffer, t *Tile) ([]serde.Segment, bool) {
			if t.Data == nil {
				return nil, false
			}
			hdr.PutVarint(int64(t.Rows))
			hdr.PutVarint(int64(t.Cols))
			return []serde.Segment{{F64: t.Data}}, true
		},
		Scatter: func(hdr *serde.Buffer, segs []serde.Segment) *Tile {
			rows := int(hdr.Varint())
			cols := int(hdr.Varint())
			// The tile is a view: Data aliases the received segment
			// (pooled receive memory) rather than copying out of it.
			// Keep the segment's full capacity so Release can return
			// the buffer to its exact pool class. The shape is the
			// sender's claim: it must cover the segment exactly (the
			// division catches a product that overflowed into range).
			data := serde.OneF64Segment(segs, rows*cols)
			if rows < 0 || cols < 0 || cols > 0 && rows > len(data)/cols {
				panic(fmt.Sprintf("tile: gather header records a %dx%d tile over a segment of %d float64s", rows, cols, len(data)))
			}
			serde.NoteViewDecode()
			t := &Tile{Rows: rows, Cols: cols, Data: data}
			t.viewed.Store(true)
			return t
		},
	})
	serde.RegisterSplitMD(&Tile{})
}

// Grid describes a square matrix of order N tiled with NB×NB blocks (the
// trailing block may be smaller).
type Grid struct {
	N, NB int
}

// NT returns the number of tile rows/columns.
func (g Grid) NT() int { return (g.N + g.NB - 1) / g.NB }

// Dim returns the extent of tile row/column i.
func (g Grid) Dim(i int) int {
	if (i+1)*g.NB <= g.N {
		return g.NB
	}
	return g.N - i*g.NB
}
