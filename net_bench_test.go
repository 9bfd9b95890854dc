// Real-network fabric benches and the regression guard over
// BENCH_net.json: loopback ping-pong latency, bandwidth against message
// size, and the gather-writev send path vs the copy-encode ablation at
// the runtime level — two single-rank MADNESS-model runtimes in one
// process connected by real TCP sockets, so every payload crosses the
// kernel loopback path.
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
	"repro/internal/netfab"
	"repro/internal/pool"
	"repro/internal/serde"
	"repro/internal/tile"
	"repro/internal/trace"
)

// runNetStream ships nTiles rows x cols pooled tiles from rank 0 to rank
// 1 with SendMove across a 2-rank local TCP mesh (one single-rank
// MADNESS-model runtime per endpoint) and returns the cluster-summed
// trace. With gather on, a moved tile travels pool -> writev -> socket ->
// pooled landing with no user-space copy; with gather off the same stream
// flattens through the archive encode/decode pair.
func runNetStream(tb testing.TB, nTiles, rows, cols int, gather bool) trace.Snapshot {
	tb.Helper()
	eps, err := netfab.NewLocalMesh(2, netfab.Config{Transport: "tcp"})
	if err != nil {
		tb.Fatal(err)
	}
	var snap trace.Snapshot
	var mu sync.Mutex
	var landed atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			o := backend.MADNESS()
			o.WorkersPerRank, o.Fabric = 2, eps[r]
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
							panic("net stream corrupted a tile")
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
		}(r)
	}
	wg.Wait()
	if got := landed.Load(); got != int64(nTiles) {
		tb.Fatalf("%d tiles landed, want %d", got, nTiles)
	}
	return snap
}

// netCases mirrors the wire-bench sweep so the socket cost is directly
// comparable to the in-process BENCH_wire.json numbers.
var netCases = []struct {
	name       string
	rows, cols int
	tiles      int
}{
	{"1KB", 16, 8, 256},
	{"16KB", 32, 64, 128},
	{"256KB", 128, 256, 32},
	{"4MB", 512, 1024, 8},
}

func benchNet(b *testing.B, rows, cols, tiles int, gather bool) {
	b.SetBytes(int64(8 * rows * cols * tiles))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runNetStream(b, tiles, rows, cols, gather)
	}
}

// BenchmarkNetGather measures the zero-copy socket path: gathered payload
// segments join the frame's vectored write, receives land in pooled
// memory, decode is a view over the landed segment.
func BenchmarkNetGather(b *testing.B) {
	for _, c := range netCases {
		b.Run(c.name, func(b *testing.B) { benchNet(b, c.rows, c.cols, c.tiles, true) })
	}
}

// BenchmarkNetCopy is the ablation: the same TCP stream through the
// archive path — per-element encode into one flat buffer before the
// socket, per-element decode out of it after.
func BenchmarkNetCopy(b *testing.B) {
	for _, c := range netCases {
		b.Run(c.name, func(b *testing.B) { benchNet(b, c.rows, c.cols, c.tiles, false) })
	}
}

// BenchmarkNetPingPong measures raw endpoint round-trip latency over the
// loopback transports — the fabric's per-message floor, under the runtime.
func BenchmarkNetPingPong(b *testing.B) {
	for _, tr := range []string{"tcp", "unix"} {
		b.Run(tr, func(b *testing.B) {
			eps, err := netfab.NewLocalMesh(2, netfab.Config{Transport: tr})
			if err != nil {
				b.Fatal(err)
			}
			defer netfab.CloseAll(eps)
			payload := []byte("x")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eps[0].Send(1, 1, payload)
				eps[1].Recv()
				eps[1].Send(0, 1, payload)
				eps[0].Recv()
			}
		})
	}
}

// BenchmarkNetBandwidth measures raw endpoint streaming bandwidth against
// message size over loopback TCP: pooled float64 segments out, pooled
// landings back to the pool on the receiver.
func BenchmarkNetBandwidth(b *testing.B) {
	for _, c := range netCases {
		b.Run(c.name, func(b *testing.B) {
			eps, err := netfab.NewLocalMesh(2, netfab.Config{Transport: "tcp"})
			if err != nil {
				b.Fatal(err)
			}
			defer netfab.CloseAll(eps)
			elems := c.rows * c.cols
			b.SetBytes(int64(8 * elems))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seg := pool.Float64s(elems)
				eps[0].SendSegs(1, 2, nil, []serde.Segment{{F64: seg}})
				pkt, ok := eps[1].Recv()
				if !ok {
					b.Fatal("inbox closed")
				}
				pool.PutFloat64s(pkt.Segs[0].F64)
			}
		})
	}
}

// netThroughputRatio measures gather vs copy wall-clock on the 256 KiB
// TCP stream (the acceptance point) and returns the best-of-reps speedup.
func netThroughputRatio(tb testing.TB, reps int) float64 {
	const rows, cols, tiles = 128, 256, 32
	best := 0.0
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		runNetStream(tb, tiles, rows, cols, true)
		gather := time.Since(t0)
		t0 = time.Now()
		runNetStream(tb, tiles, rows, cols, false)
		cp := time.Since(t0)
		if r := cp.Seconds() / gather.Seconds(); r > best {
			best = r
		}
	}
	return best
}

// TestNetBenchGuard is the CI guard over the committed network baseline:
// with TTG_BENCH_GUARD=1 it re-measures the 256 KiB gather-writev vs
// copy-encode throughput ratio over loopback TCP and fails when it falls
// below 2x (the acceptance floor) or regresses >35% against
// BENCH_net.json.
func TestNetBenchGuard(t *testing.T) {
	if os.Getenv("TTG_BENCH_GUARD") != "1" {
		t.Skip("set TTG_BENCH_GUARD=1 to run the network bench guard")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("bench guard needs >= 2 CPUs: contended ratios are meaningless on a single-core runner")
	}
	raw, err := os.ReadFile("BENCH_net.json")
	if err != nil {
		t.Fatalf("read committed baseline: %v", err)
	}
	var baseline struct {
		Summary struct {
			Ratio256K float64 `json:"gather_vs_copy_256k_ratio"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatalf("parse BENCH_net.json: %v", err)
	}
	base := baseline.Summary.Ratio256K
	if base < 2 {
		t.Fatalf("BENCH_net.json gather_vs_copy_256k_ratio = %v, want >= 2", base)
	}
	best := netThroughputRatio(t, 5)
	if best < 2 {
		t.Fatalf("gather-writev vs copy-encode 256KiB speedup below the 2x acceptance floor: %.2fx", best)
	}
	if best < base*0.65 {
		t.Fatalf("network speedup regressed: measured %.2fx, committed baseline %.2fx (>35%% regression)",
			best, base)
	}
	t.Logf("gather-writev vs copy-encode 256KiB speedup over TCP: %.2fx (baseline %.2fx)", best, base)
}
