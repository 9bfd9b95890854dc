// Zero-copy wire path benches and the regression guard over
// BENCH_wire.json: gather/scatter sends vs copy-encode across payload
// sizes on the MADNESS-model backend (no splitmd, so the wire path owns
// every payload), the recv-view decode microbenchmark, and the
// TTG_BENCH_GUARD tripwire on the 256 KiB throughput ratio.
package repro

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/serde"
	"repro/internal/tile"
	"repro/internal/trace"
)

// runWireStream ships nTiles rows x cols pooled tiles from rank 0 to rank
// 1 with SendMove on a 2-rank MADNESS-model runtime and returns the
// cluster-summed trace. The receiver releases each tile, so pooled payload
// buffers recycle across the stream exactly as they would mid-application.
func runWireStream(tb testing.TB, nTiles, rows, cols int, gather bool) trace.Snapshot {
	tb.Helper()
	var snap trace.Snapshot
	var mu sync.Mutex
	var landed atomic.Int64
	o := backend.MADNESS()
	o.WorkersPerRank = 2
	if !gather {
		o.GatherThreshold = -1
	}
	rt := backend.New(2, o)
	rt.Run(func(p *backend.Proc) {
		g := p.NewGraph()
		in := core.NewEdge("in")
		out := core.NewEdge("out")
		g.AddTT(core.TTSpec{
			Name:    "src",
			Inputs:  []core.InputSpec{{Edge: in}},
			Outputs: []core.OutputSpec{{Edge: out}},
			Keymap:  func(any) int { return 0 },
			Body: func(ctx *core.TaskContext) {
				for k := 0; k < nTiles; k++ {
					tl := tile.NewPooled(rows, cols)
					tl.Data[0] = float64(k)
					ctx.SendMode(0, serde.Int1{k}, tl, core.SendMove)
				}
			},
		})
		g.AddTT(core.TTSpec{
			Name:   "sink",
			Inputs: []core.InputSpec{{Edge: out}},
			Keymap: func(any) int { return 1 },
			Body: func(ctx *core.TaskContext) {
				tl := ctx.Input(0).(*tile.Tile)
				if tl.Data[0] != float64(ctx.Key().Value().(serde.Int1)[0]) {
					panic("wire stream corrupted a tile")
				}
				landed.Add(1)
				tl.Release()
			},
		})
		g.Seal()
		p.Bind(g)
		if p.Rank() == 0 {
			g.Seed(in, serde.Int1{0}, 0.0)
		}
		g.Fence()
		mu.Lock()
		snap = snap.Add(p.Tracer().Snapshot())
		mu.Unlock()
	})
	if got := landed.Load(); got != int64(nTiles) {
		tb.Fatalf("%d tiles landed, want %d", got, nTiles)
	}
	return snap
}

// wireCases spans the 1 KiB gather floor up to 4 MiB payloads; the tile
// count per run shrinks as payloads grow so each measurement moves enough
// bytes to dominate runtime startup without taking seconds per op.
var wireCases = []struct {
	name       string
	rows, cols int
	tiles      int
}{
	{"1KB", 16, 8, 256},
	{"16KB", 32, 64, 128},
	{"256KB", 128, 256, 32},
	{"4MB", 512, 1024, 8},
}

func benchWire(b *testing.B, rows, cols, tiles int, gather bool) {
	b.SetBytes(int64(8 * rows * cols * tiles))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		snap := runWireStream(b, tiles, rows, cols, gather)
		if gather && snap.GatherSends != int64(tiles) {
			b.Fatalf("GatherSends = %d, want %d", snap.GatherSends, tiles)
		}
		if !gather && snap.GatherSends != 0 {
			b.Fatalf("gather off: GatherSends = %d", snap.GatherSends)
		}
	}
}

// BenchmarkWireGather measures the zero-copy wire path: header-only
// encode, payload segments by reference (a move of a pooled tile ships
// with no copy at all), view decode on the receiver.
func BenchmarkWireGather(b *testing.B) {
	for _, c := range wireCases {
		b.Run(c.name, func(b *testing.B) { benchWire(b, c.rows, c.cols, c.tiles, true) })
	}
}

// BenchmarkWireCopy is the ablation baseline: the same stream through the
// archive path — per-element encode on send, per-element decode into a
// fresh pooled tile on receive.
func BenchmarkWireCopy(b *testing.B) {
	for _, c := range wireCases {
		b.Run(c.name, func(b *testing.B) { benchWire(b, c.rows, c.cols, c.tiles, false) })
	}
}

// BenchmarkRecvViewDecode isolates the receive half at the codec layer: a
// view decode (Scatter aliases the landed segment) against the archive
// decode (copy every element out of the wire buffer).
func BenchmarkRecvViewDecode(b *testing.B) {
	const rows, cols = 256, 256 // 512 KiB payload
	src := tile.New(rows, cols)
	for i := range src.Data {
		src.Data[i] = float64(i)
	}
	gat, ok := serde.LookupCached(src).Gatherer()
	if !ok {
		b.Fatal("tile codec lost its gather extension")
	}
	hdr := serde.NewBuffer(32)
	segs, ok := gat.Segments(hdr, src)
	if !ok {
		b.Fatal("tile codec declined a real payload")
	}
	payload := int64(serde.SegmentBytes(segs))

	b.Run("view", func(b *testing.B) {
		b.SetBytes(payload)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := gat.Scatter(serde.FromBytes(hdr.Bytes()), segs).(*tile.Tile)
			// Retire the ledger entry only: the view aliases src.Data, which
			// must not be recycled into the tile pool.
			v.EndViewLease()
		}
	})

	eb := serde.NewBuffer(32 + 8*rows*cols)
	serde.EncodeAny(eb, src)
	raw := eb.Bytes()
	b.Run("copy", func(b *testing.B) {
		b.SetBytes(payload)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := serde.DecodeAny(serde.FromBytes(raw)).(*tile.Tile)
			v.Release()
		}
	})
}

// wireThroughputRatio measures gather vs copy wall-clock on the 256 KiB
// stream (the acceptance point) and returns the best-of-reps speedup.
func wireThroughputRatio(tb testing.TB, reps int) float64 {
	const rows, cols, tiles = 128, 256, 32
	best := 0.0
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		runWireStream(tb, tiles, rows, cols, true)
		gather := time.Since(t0)
		t0 = time.Now()
		runWireStream(tb, tiles, rows, cols, false)
		cp := time.Since(t0)
		if r := cp.Seconds() / gather.Seconds(); r > best {
			best = r
		}
	}
	return best
}

// TestWireBenchGuard is the CI guard over the committed wire baseline:
// with TTG_BENCH_GUARD=1 it re-measures the 256 KiB gather-vs-copy
// throughput ratio and fails when it falls below 2x (the acceptance floor)
// or regresses >35% against BENCH_wire.json. Timing-based ratios wobble
// more than structural counts, hence the wider band and best-of-5.
func TestWireBenchGuard(t *testing.T) {
	if os.Getenv("TTG_BENCH_GUARD") != "1" {
		t.Skip("set TTG_BENCH_GUARD=1 to run the wire bench guard")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("bench guard needs >= 2 CPUs: contended ratios are meaningless on a single-core runner")
	}
	raw, err := os.ReadFile("BENCH_wire.json")
	if err != nil {
		t.Fatalf("read committed baseline: %v", err)
	}
	var baseline struct {
		Summary struct {
			Ratio256K float64 `json:"gather_vs_copy_256k_ratio"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatalf("parse BENCH_wire.json: %v", err)
	}
	base := baseline.Summary.Ratio256K
	if base < 2 {
		t.Fatalf("BENCH_wire.json gather_vs_copy_256k_ratio = %v, want >= 2", base)
	}
	best := wireThroughputRatio(t, 5)
	if best < 2 {
		t.Fatalf("gather-vs-copy 256KiB speedup below the 2x acceptance floor: %.2fx", best)
	}
	if best < base*0.65 {
		t.Fatalf("wire speedup regressed: measured %.2fx, committed baseline %.2fx (>35%% regression)",
			best, base)
	}
	t.Logf("gather-vs-copy 256KiB speedup: %.2fx (baseline %.2fx)", best, base)
}
