package backend_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/serde"
	"repro/internal/tile"
)

// dataPacket frames body as the value of an eager kData message whose codec
// is the tile's.
func dataPacket(src int, body []byte) fabric.Packet {
	b := serde.NewBuffer(64 + len(body))
	core.EncodeHeader(b, core.Delivery{})
	b.PutBool(true)
	b.PutUvarint(uint64(serde.WireTagOf(&tile.Tile{})))
	b.PutRaw(body)
	return fabric.Packet{Src: src, Data: b.Bytes()}
}

// tileShape encodes a tile's shape: the whole of its gather header, and the
// start of its eager encoding.
func tileShape(rows, cols int64) *serde.Buffer {
	b := serde.NewBuffer(32)
	b.PutVarint(rows)
	b.PutVarint(cols)
	return b
}

// tileHeader encodes an eager tile header: the shape, then whether a
// payload follows.
func tileHeader(rows, cols int64, dense bool) *serde.Buffer {
	b := tileShape(rows, cols)
	b.PutBool(dense)
	return b
}

// TestDataDecodeBoundsTileShape: the tile codec's eager decoder reads its
// shape off the wire, so it must refuse a shape its payload cannot cover
// before sizing anything by it — a negative dimension, a product that
// overflows, and a 4096×4096 claim over 16 payload bytes (128 MB asked for
// before the first short read). Each must panic naming kData and the source
// rank; a well-formed tile decodes.
func TestDataDecodeBoundsTileShape(t *testing.T) {
	const src = 2
	good := tileHeader(2, 2, true)
	for i := range 4 {
		good.PutF64(float64(i))
	}
	d := backend.DecodeData(dataPacket(src, good.Bytes()))
	if tl, ok := d.Value.(*tile.Tile); !ok || tl.Rows != 2 || tl.Cols != 2 || tl.Data[3] != 3 || !d.Exclusive {
		t.Fatalf("well-formed 2x2 tile decoded to %+v", d)
	}
	for _, bad := range []struct {
		name       string
		rows, cols int64
		dense      bool
		payload    int // bytes after the header
	}{
		{"negative row count", -1, 4, true, 32},
		{"negative phantom row count", -1, 4, false, 0},
		{"overflowing product", 1 << 32, 1 << 32, true, 16},
		{"4096x4096 claim over 16 payload bytes", 4096, 4096, true, 16},
	} {
		b := tileHeader(bad.rows, bad.cols, bad.dense)
		b.PutRaw(make([]byte, bad.payload))
		func() {
			defer func() {
				// The codec itself refuses the shape, before a slice is sized
				// by it; the backend names the packet.
				msg := fmt.Sprint(recover())
				want := fmt.Sprintf("backend: malformed kData packet from rank %d: tile: ", src)
				if !strings.HasPrefix(msg, want) {
					t.Errorf("%s: recovered %q, want a panic starting %q", bad.name, msg, want)
				}
			}()
			d := backend.DecodeData(dataPacket(src, b.Bytes()))
			t.Errorf("%s: decoded to %v", bad.name, d.Value)
		}()
	}
}

// FuzzTileDecode drives both tile receive paths on arbitrary bytes: Dec
// through a kData packet, and Scatter through a kGatherData packet whose one
// payload segment holds segLen float64s. A packet either decodes to a tile
// whose re-encoding decodes to the same bytes, or is refused with the panic
// naming the packet. Either way the decode allocates no more than a small
// multiple of what arrived.
func FuzzTileDecode(f *testing.F) {
	rt := backend.New(1, withWorkers(backend.PaRSEC(), 1))
	f.Cleanup(rt.Shutdown)
	p := rt.Proc(0)
	gatherer, _ := serde.LookupCached(&tile.Tile{}).Gatherer()

	for _, shape := range [][2]int64{{2, 3}, {0, 7}, {16, 16}} {
		rows, cols := shape[0], shape[1]
		b := tileHeader(rows, cols, true)
		for i := range rows * cols {
			b.PutF64(float64(i) - 0.5)
		}
		f.Add(false, b.Bytes(), uint16(0))
		f.Add(true, tileShape(rows, cols).Bytes(), uint16(rows*cols))
	}
	f.Add(false, tileHeader(4, 5, false).Bytes(), uint16(0))
	f.Add(false, tileHeader(4096, 4096, true).Bytes(), uint16(0))
	f.Add(true, tileShape(1<<32, 1<<32).Bytes(), uint16(0))

	f.Fuzz(func(t *testing.T, gather bool, body []byte, segLen uint16) {
		pkt := dataPacket(1, body)
		want := "backend: malformed kData packet from rank 1: "
		if gather {
			b := serde.NewBuffer(64 + len(body))
			core.EncodeHeader(b, core.Delivery{})
			b.PutUvarint(uint64(serde.WireTagOf(&tile.Tile{})))
			b.PutUvarint(uint64(len(body)))
			b.PutRaw(body)
			b.PutUvarint(1)
			pkt = fabric.Packet{Src: 1, Data: b.Bytes(),
				Segs: []serde.Segment{{F64: make([]float64, segLen%4096)}}}
			want = "backend: malformed kGatherData packet from rank 1: "
		}
		arrived := uint64(len(pkt.Data))
		for _, s := range pkt.Segs {
			arrived += 8 * uint64(len(s.F64))
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tl := func() *tile.Tile {
			defer func() {
				if r := recover(); r != nil {
					if msg, _ := r.(string); !strings.HasPrefix(msg, want) {
						t.Fatalf("unnamed panic: %v", r)
					}
				}
			}()
			if gather {
				return backend.DecodeGather(p, pkt).Value.(*tile.Tile)
			}
			return backend.DecodeData(pkt).Value.(*tile.Tile)
		}()
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10+4*arrived {
			t.Fatalf("decoding %d bytes allocated %d", arrived, grew)
		}
		if tl == nil {
			return
		}

		if gather {
			// A view: scatter its own gather form again and compare the
			// shape and every payload bit.
			hdr := serde.NewBuffer(16)
			segs, ok := gatherer.Segments(hdr, tl)
			if !ok {
				t.Fatalf("decoded %v declined to gather", tl)
			}
			again := gatherer.Scatter(serde.FromBytes(hdr.Bytes()), segs).(*tile.Tile)
			if again.Rows != tl.Rows || again.Cols != tl.Cols || !sameBits(again.Data, tl.Data) {
				t.Fatalf("gather round trip of %v gave %v", tl, again)
			}
			again.EndViewLease()
			tl.EndViewLease()
			return
		}
		// Compare encodings, not values: a payload element may be NaN.
		enc := serde.NewBuffer(64)
		serde.EncodeAny(enc, tl)
		again := serde.NewBuffer(enc.Len())
		serde.EncodeAny(again, serde.DecodeAny(serde.FromBytes(enc.Bytes())))
		if !bytes.Equal(again.Bytes(), enc.Bytes()) {
			t.Fatalf("round trip of %v:\n got %x\nwant %x", tl, again.Bytes(), enc.Bytes())
		}
	})
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
