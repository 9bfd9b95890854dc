// Benchmarks regenerating the paper's evaluation (one per table/figure)
// plus microbenchmarks of the §II features and ablations of the design
// choices DESIGN.md calls out. Figure benches run the Quick sweeps and
// report the headline metric via b.ReportMetric; run cmd/ttg-bench for the
// paper-shaped Full sweeps.
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps/bspmm"
	"repro/internal/apps/cholesky"
	"repro/internal/apps/fw"
	"repro/internal/backend"
	"repro/internal/backend/sim"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/sched"
	"repro/internal/serde"
	"repro/internal/simnet"
	"repro/internal/sparse"
	"repro/internal/tile"
	"repro/internal/trace"
	"repro/ttg"
)

// reportAt pulls one series' value at the sweep's largest x.
func reportAt(b *testing.B, f experiments.Figure, series, unit string) {
	b.Helper()
	maxX := 0.0
	for _, p := range f.Points {
		if p.X > maxX {
			maxX = p.X
		}
	}
	if v, ok := f.Get(series, maxX); ok {
		b.ReportMetric(v, unit)
	}
}

// --- Figure benches (Quick sweeps) ---

func BenchmarkFig5WeakScalingPOTRF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Fig5(experiments.Quick)
		reportAt(b, f, "TTG/PaRSEC", "TFlops@max")
	}
}

func BenchmarkFig6ProblemScalingPOTRF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Fig6(experiments.Quick)
		reportAt(b, f, "TTG/PaRSEC", "TFlops@max")
	}
}

func BenchmarkFig8FWAPSPHawk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Fig8(experiments.Quick)
		reportAt(b, f, "TTG/PaRSEC b=128", "TFlops@max")
	}
}

func BenchmarkFig9FWAPSPSeawulf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Fig9(experiments.Quick)
		reportAt(b, f, "TTG/PaRSEC b=128", "TFlops@max")
	}
}

func BenchmarkFig12BSPMM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Fig12(experiments.Quick)
		reportAt(b, f, "TTG/PaRSEC", "TFlops@max")
	}
}

func BenchmarkFig13aMRASeawulf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Fig13a(experiments.Quick)
		reportAt(b, f, "TTG/PaRSEC", "runs/s@max")
	}
}

func BenchmarkFig13bMRAHawk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Fig13b(experiments.Quick)
		reportAt(b, f, "TTG/PaRSEC", "runs/s@max")
	}
}

// --- §II feature microbenchmarks (real backends, real messages) ---

// BenchmarkSendThroughputLocal measures same-rank send+task dispatch.
func BenchmarkSendThroughputLocal(b *testing.B) {
	benchSendChain(b, 1)
}

// BenchmarkSendThroughputRemote measures cross-rank send (serialization,
// virtual fabric, delivery, task dispatch).
func BenchmarkSendThroughputRemote(b *testing.B) {
	benchSendChain(b, 2)
}

// BenchmarkObsOverhead guards the observability layer's cost on the hottest
// runtime path (same-rank send → match → activate → execute). The
// sub-benches run the identical chain workload with recording disabled
// (every instrumentation point reduces to one nil-check branch) and enabled
// (lock-free ring record + cached metric handles). Regression guard: the
// disabled ns/op must stay within 2% of BenchmarkSendThroughputLocal (the
// uninstrumented figure), and a significantly larger disabled/Local gap
// means a nil-check was replaced by something costlier — treat that as a
// failure even though the benchmark itself cannot assert across runs.
// Enabled overhead is informational; ~5 events per hop is the expected
// recording volume. The live sub-bench additionally attaches the full
// introspection stack — doctor watchdog probing every 1ms plus a
// goroutine scraping LiveReport and the OpenMetrics exporter — and the
// remote pair measures the causal-span cost on the cross-rank path (flow
// id on the wire plus emit/recv events); TestObsOverheadGuard holds live
// within 5% of enabled.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) { benchObsChain(b, nil) })
	b.Run("enabled", func(b *testing.B) { benchObsChain(b, benchSession(b)) })
	b.Run("live", func(b *testing.B) { benchObsChainLive(b, benchSession(b)) })
	b.Run("remote-disabled", func(b *testing.B) { benchObsChainRemote(b, nil) })
	b.Run("remote-spans", func(b *testing.B) { benchObsChainRemote(b, benchSession(b)) })
}

// benchSession builds an obs session with the ring capped so huge
// -benchtime runs don't allocate without bound; once full, the drop path
// still exercises the atomic claim.
func benchSession(b *testing.B) *obs.Session {
	cap := b.N * 6
	if cap > 1<<20 {
		cap = 1 << 20
	}
	return obs.NewSession(obs.Config{Capacity: cap})
}

func benchObsChain(b *testing.B, session *obs.Session) {
	n := b.N
	ttg.Run(ttg.Config{Ranks: 1, WorkersPerRank: 1, Obs: session}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		e := ttg.NewEdge[ttg.Int1, float64]("chain")
		ttg.MakeTT1(g, "hop", ttg.Input(e), ttg.Out(e),
			func(x *ttg.Ctx[ttg.Int1], v float64) {
				k := x.Key()[0]
				if k < n {
					ttg.Send(x, e, ttg.Int1{k + 1}, v)
				}
			},
			ttg.Options[ttg.Int1]{Keymap: func(k ttg.Int1) int { return 0 }},
		)
		g.MakeExecutable()
		b.ResetTimer()
		ttg.Seed(g, e, ttg.Int1{0}, 1.0)
		g.Fence()
	})
}

// benchObsChainLive is benchObsChain with the live introspection stack
// attached: the doctor watchdog probes at its minimum interval and one
// scraper goroutine hammers Session.LiveReport plus the OpenMetrics
// exporter for the whole timed region — the worst-case concurrent
// observer a real run would see.
func benchObsChainLive(b *testing.B, session *obs.Session) {
	n := b.N
	var doc *live.Doctor
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	hook := func(targets []live.Target, cs []live.Collector) {
		doc = live.NewDoctor(live.Config{Quiet: time.Hour, Interval: time.Millisecond}, targets...)
		doc.Start()
		exp := &live.Exporter{Session: session, Collectors: cs}
		scraper.Add(1)
		go func() {
			defer scraper.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					_ = session.LiveReport()
					_ = exp.Export(io.Discard)
				}
			}
		}()
	}
	ttg.RunLive(ttg.Config{Ranks: 1, WorkersPerRank: 1, Obs: session}, hook, func(pc *ttg.Process) {
		g := pc.NewGraph()
		e := ttg.NewEdge[ttg.Int1, float64]("chain")
		ttg.MakeTT1(g, "hop", ttg.Input(e), ttg.Out(e),
			func(x *ttg.Ctx[ttg.Int1], v float64) {
				k := x.Key()[0]
				if k < n {
					ttg.Send(x, e, ttg.Int1{k + 1}, v)
				}
			},
			ttg.Options[ttg.Int1]{Keymap: func(k ttg.Int1) int { return 0 }},
		)
		g.MakeExecutable()
		b.ResetTimer()
		ttg.Seed(g, e, ttg.Int1{0}, 1.0)
		g.Fence()
	})
	b.StopTimer()
	close(stop)
	scraper.Wait()
	doc.Stop()
}

// benchObsChainRemote ping-pongs the chain between two ranks so every hop
// crosses the fabric; with a session attached each hop additionally
// carries a causal-span id on the wire and records the emit/recv pair.
func benchObsChainRemote(b *testing.B, session *obs.Session) {
	n := b.N
	ttg.Run(ttg.Config{Ranks: 2, WorkersPerRank: 1, Obs: session}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		e := ttg.NewEdge[ttg.Int1, float64]("chain")
		ttg.MakeTT1(g, "hop", ttg.Input(e), ttg.Out(e),
			func(x *ttg.Ctx[ttg.Int1], v float64) {
				k := x.Key()[0]
				if k < n {
					ttg.Send(x, e, ttg.Int1{k + 1}, v)
				}
			},
			ttg.Options[ttg.Int1]{Keymap: func(k ttg.Int1) int { return k[0] % 2 }},
		)
		g.MakeExecutable()
		if pc.Rank() == 0 {
			b.ResetTimer()
			ttg.Seed(g, e, ttg.Int1{0}, 1.0)
		}
		g.Fence()
	})
}

// TestObsOverheadGuard enforces the live-introspection overhead budget:
// with TTG_BENCH_GUARD=1 (the bench-smoke CI step) it benchmarks the
// enabled chain against the live chain and fails if attaching the
// doctor, snapshot scraper, and exporter costs more than 5% on the hot
// path. A small absolute epsilon absorbs timer noise on sub-microsecond
// ops; each side takes the best of three runs to shed scheduler jitter.
func TestObsOverheadGuard(t *testing.T) {
	if os.Getenv("TTG_BENCH_GUARD") != "1" {
		t.Skip("set TTG_BENCH_GUARD=1 to run the overhead guard")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("bench guard needs >= 2 CPUs: contended ratios are meaningless on a single-core runner")
	}
	best := func(bench func(b *testing.B)) float64 {
		ns := math.Inf(1)
		for i := 0; i < 3; i++ {
			r := testing.Benchmark(bench)
			if v := float64(r.T.Nanoseconds()) / float64(r.N); v < ns {
				ns = v
			}
		}
		return ns
	}
	base := best(func(b *testing.B) { benchObsChain(b, benchSession(b)) })
	withLive := best(func(b *testing.B) { benchObsChainLive(b, benchSession(b)) })
	const budget = 1.05
	const epsilonNs = 60.0
	if withLive > base*budget+epsilonNs {
		t.Fatalf("live introspection overhead over budget: enabled %.0f ns/op, live %.0f ns/op (%.1f%% > 5%%)",
			base, withLive, (withLive/base-1)*100)
	}
	t.Logf("live introspection overhead: enabled %.0f ns/op, live %.0f ns/op (%+.1f%%)",
		base, withLive, (withLive/base-1)*100)
}

func benchSendChain(b *testing.B, ranks int) {
	n := b.N
	ttg.Run(ttg.Config{Ranks: ranks, WorkersPerRank: 1}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		e := ttg.NewEdge[ttg.Int1, float64]("chain")
		ttg.MakeTT1(g, "hop", ttg.Input(e), ttg.Out(e),
			func(x *ttg.Ctx[ttg.Int1], v float64) {
				k := x.Key()[0]
				if k < n {
					ttg.Send(x, e, ttg.Int1{k + 1}, v)
				}
			},
			ttg.Options[ttg.Int1]{Keymap: func(k ttg.Int1) int { return k[0] % pc.Size() }},
		)
		g.MakeExecutable()
		if pc.Rank() == 0 {
			b.ResetTimer()
			ttg.Seed(g, e, ttg.Int1{0}, 1.0)
		}
		g.Fence()
	})
}

// BenchmarkBroadcastTree measures the tree broadcast of one tile to every
// rank on the PaRSEC-model backend (the §II-A optimized broadcast). Note:
// these two benches compare the *mechanisms* on the ideal in-process
// fabric, where the tree's extra forwarding hops cost goroutine latency;
// the tree's real win is under network bandwidth constraints, which the
// virtual-time BenchmarkAblationBroadcast measures (≈2.7× at 64 nodes).
func BenchmarkBroadcastTree(b *testing.B) {
	benchBroadcast(b, ttg.PaRSEC)
}

// BenchmarkBroadcastPointToPoint is the same fan-out on the MADNESS-model
// backend (point-to-point sends from the root).
func BenchmarkBroadcastPointToPoint(b *testing.B) {
	benchBroadcast(b, ttg.MADNESS)
}

func benchBroadcast(b *testing.B, be ttg.Backend) {
	const ranks = 8
	n := b.N
	ttg.Run(ttg.Config{Ranks: ranks, WorkersPerRank: 1, Backend: be}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		drive := ttg.NewEdge[ttg.Int1, ttg.Void]("drive")
		data := ttg.NewEdge[ttg.Int2, *tile.Tile]("data")
		ack := ttg.NewEdge[ttg.Int1, ttg.Void]("ack")
		payload := tile.New(64, 64)
		ttg.MakeTT1(g, "root", ttg.Input(drive), ttg.Out(data),
			func(x *ttg.Ctx[ttg.Int1], _ ttg.Void) {
				it := x.Key()[0]
				keys := make([]ttg.Int2, ranks)
				for r := 0; r < ranks; r++ {
					keys[r] = ttg.Int2{it, r}
				}
				ttg.BroadcastM(x, data, keys, payload, ttg.Borrow)
			},
			ttg.Options[ttg.Int1]{Keymap: func(ttg.Int1) int { return 0 }},
		)
		ttg.MakeTT1(g, "recv", ttg.Input(data), ttg.Out(ack),
			func(x *ttg.Ctx[ttg.Int2], t *tile.Tile) {
				ttg.Send(x, ack, ttg.Int1{x.Key()[0]}, ttg.Void{})
			},
			ttg.Options[ttg.Int2]{Keymap: func(k ttg.Int2) int { return k[1] }},
		)
		ttg.MakeTT1(g, "next",
			ttg.ReduceInput(ack, func(a, _ ttg.Void) ttg.Void { return a }, func(ttg.Int1) int { return ranks }),
			ttg.Out(drive),
			func(x *ttg.Ctx[ttg.Int1], _ ttg.Void) {
				it := x.Key()[0]
				if it+1 < n {
					ttg.Send(x, drive, ttg.Int1{it + 1}, ttg.Void{})
				}
			},
			ttg.Options[ttg.Int1]{Keymap: func(ttg.Int1) int { return 0 }},
		)
		g.MakeExecutable()
		if pc.Rank() == 0 {
			b.ResetTimer()
			ttg.Seed(g, drive, ttg.Int1{0}, ttg.Void{})
		}
		g.Fence()
	})
	b.SetBytes(int64(64 * 64 * 8))
}

// BenchmarkSerdeTileArchive measures whole-object tile serialization.
func BenchmarkSerdeTileArchive(b *testing.B) {
	t := tile.New(128, 128)
	buf := serde.NewBuffer(t.PayloadSize() + 64)
	b.SetBytes(int64(t.PayloadSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		serde.EncodeAny(buf, t)
		_ = serde.DecodeAny(serde.FromBytes(buf.Bytes()))
	}
}

// BenchmarkStreamingReducer measures streaming-terminal accumulation.
func BenchmarkStreamingReducer(b *testing.B) {
	n := b.N
	ttg.Run(ttg.Config{Ranks: 1, WorkersPerRank: 1}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		acc := ttg.NewEdge[ttg.Int1, float64]("acc")
		ttg.MakeTT1(g, "sum",
			ttg.ReduceInput(acc, func(a, v float64) float64 { return a + v },
				func(ttg.Int1) int { return n }),
			nil,
			func(x *ttg.Ctx[ttg.Int1], v float64) {},
		)
		g.MakeExecutable()
		b.ResetTimer()
		for i := 0; i < n; i++ {
			ttg.Seed(g, acc, ttg.Int1{0}, 1.0)
		}
		g.Fence()
	})
}

// --- Ablations (virtual time; value reported is the makespan ratio
// baseline/variant, >1 means the feature helps) ---

func ablationCholesky(b *testing.B, nodes int, flavorA, flavorB cluster.Flavor, prioA, prioB bool) {
	grid := tile.Grid{N: 16384, NB: 512}
	machine := cluster.Hawk()
	run := func(fl cluster.Flavor, prio bool) float64 {
		rt := sim.New(sim.Config{Ranks: nodes, Machine: machine, Flavor: fl,
			Cost: cholesky.CostModel(grid, machine)})
		rt.Run(func(p *sim.Proc) {
			g := ttg.NewGraphOn(p)
			app := cholesky.Build(g, cholesky.Options{Grid: grid, Phantom: true, Priorities: prio})
			g.MakeExecutable()
			app.Seed()
			g.Fence()
		})
		return rt.Now()
	}
	for i := 0; i < b.N; i++ {
		ta := run(flavorA, prioA)
		tb := run(flavorB, prioB)
		b.ReportMetric(tb/ta, "speedup")
	}
}

// BenchmarkAblationBroadcast: tree broadcast vs point-to-point sends, on
// a broadcast-dominated workload (a chain of full-cluster broadcasts of a
// 1 MB tile at 64 nodes; the dense kernels' fan-outs only span one process
// grid row, where both strategies are cheap).
func BenchmarkAblationBroadcast(b *testing.B) {
	const ranks = 64
	const chain = 16
	machine := cluster.Hawk()
	run := func(tree bool) float64 {
		fl := cluster.ParsecFlavor()
		fl.TreeBroadcast = tree
		rt := sim.New(sim.Config{Ranks: ranks, WorkersPerRank: 2, Machine: machine, Flavor: fl})
		rt.Run(func(p *sim.Proc) {
			g := ttg.NewGraphOn(p)
			drive := ttg.NewEdge[ttg.Int1, *tile.Tile]("drive")
			data := ttg.NewEdge[ttg.Int2, *tile.Tile]("data")
			ackE := ttg.NewEdge[ttg.Int1, ttg.Void]("ack")
			ttg.MakeTT1(g, "root", ttg.Input(drive), ttg.Out(data),
				func(x *ttg.Ctx[ttg.Int1], t *tile.Tile) {
					it := x.Key()[0]
					keys := make([]ttg.Int2, ranks)
					for r := 0; r < ranks; r++ {
						keys[r] = ttg.Int2{it, r}
					}
					ttg.BroadcastM(x, data, keys, t, ttg.Borrow)
				},
				ttg.Options[ttg.Int1]{Keymap: func(ttg.Int1) int { return 0 }})
			ttg.MakeTT1(g, "recv", ttg.Input(data), ttg.Out(ackE),
				func(x *ttg.Ctx[ttg.Int2], t *tile.Tile) {
					ttg.Send(x, ackE, ttg.Int1{x.Key()[0]}, ttg.Void{})
				},
				ttg.Options[ttg.Int2]{Keymap: func(k ttg.Int2) int { return k[1] }})
			ttg.MakeTT1(g, "next",
				ttg.ReduceInput(ackE, func(a, _ ttg.Void) ttg.Void { return a },
					func(ttg.Int1) int { return ranks }),
				ttg.Out(drive),
				func(x *ttg.Ctx[ttg.Int1], _ ttg.Void) {
					if it := x.Key()[0]; it+1 < chain {
						ttg.Send(x, drive, ttg.Int1{it + 1}, tile.Phantom(362, 362))
					}
				},
				ttg.Options[ttg.Int1]{Keymap: func(ttg.Int1) int { return 0 }})
			g.MakeExecutable()
			if p.Rank() == 0 {
				ttg.Seed(g, drive, ttg.Int1{0}, tile.Phantom(362, 362)) // ~1 MB
			}
			g.Fence()
		})
		return rt.Now()
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false)/run(true), "speedup")
	}
}

// BenchmarkAblationSplitMD: splitmd rendezvous vs whole-object archives.
func BenchmarkAblationSplitMD(b *testing.B) {
	with := cluster.ParsecFlavor()
	without := with
	without.SplitMD = false
	ablationCholesky(b, 16, with, without, true, true)
}

// BenchmarkAblationPriority: critical-path priorities on vs off (at a
// node count where workers are contended; with abundant workers the ready
// queue rarely holds a choice).
func BenchmarkAblationPriority(b *testing.B) {
	fl := cluster.ParsecFlavor()
	ablationCholesky(b, 4, fl, fl, true, false)
}

// BenchmarkAblationCopySemantics: runtime-tracked const-ref sends vs
// copy-everything (the TracksData property).
func BenchmarkAblationCopySemantics(b *testing.B) {
	with := cluster.ParsecFlavor()
	without := with
	without.TracksData = false
	grid := tile.Grid{N: 4096, NB: 128}
	machine := cluster.Hawk()
	run := func(fl cluster.Flavor) float64 {
		rt := sim.New(sim.Config{Ranks: 8, Machine: machine, Flavor: fl,
			Cost: fw.CostModel(grid, machine)})
		rt.Run(func(p *sim.Proc) {
			g := ttg.NewGraphOn(p)
			app := fw.Build(g, fw.Options{Grid: grid, Phantom: true, Priorities: true})
			g.MakeExecutable()
			app.Seed()
			g.Fence()
		})
		return rt.Now()
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(without)/run(with), "speedup")
	}
}

// BenchmarkAblationWindow: the bspmm coordinator window (feedback loop 2).
func BenchmarkAblationWindow(b *testing.B) {
	mat := sparse.Generate(sparse.DefaultSpec(150))
	machine := cluster.Hawk()
	run := func(batch, window int) float64 {
		rt := sim.New(sim.Config{Ranks: 16, Machine: machine, Flavor: cluster.ParsecFlavor(),
			Cost: bspmm.CostModel(mat, machine)})
		rt.Run(func(p *sim.Proc) {
			g := ttg.NewGraphOn(p)
			app := bspmm.Build(g, bspmm.Options{A: mat, Phantom: true, BatchSize: batch, CoordWindow: window})
			g.MakeExecutable()
			app.Seed()
			g.Fence()
		})
		return rt.Now()
	}
	for i := 0; i < b.N; i++ {
		tight := run(2, 1)
		wide := run(32, 8)
		b.ReportMetric(tight/wide, "speedup")
	}
}

// --- Full-pipeline real-execution benches (real kernels and messages) ---

func BenchmarkRealCholesky(b *testing.B) {
	grid := tile.Grid{N: 256, NB: 32}
	for i := 0; i < b.N; i++ {
		var mu sync.Mutex
		results := map[ttg.Int2]*tile.Tile{}
		ttg.Run(ttg.Config{Ranks: 2, WorkersPerRank: 1}, func(pc *ttg.Process) {
			g := pc.NewGraph()
			app := cholesky.Build(g, cholesky.Options{Grid: grid, Priorities: true,
				OnResult: func(i, j int, t *tile.Tile) {
					mu.Lock()
					results[ttg.Int2{i, j}] = t
					mu.Unlock()
				}})
			g.MakeExecutable()
			app.Seed()
			g.Fence()
		})
		if len(results) == 0 {
			b.Fatal("no results")
		}
	}
	b.ReportMetric(cholesky.Flops(grid.N)/1e9, "GFlop/iter")
}

func BenchmarkRealFWAPSP(b *testing.B) {
	grid := tile.Grid{N: 128, NB: 16}
	for i := 0; i < b.N; i++ {
		ttg.Run(ttg.Config{Ranks: 2, WorkersPerRank: 1}, func(pc *ttg.Process) {
			g := pc.NewGraph()
			app := fw.Build(g, fw.Options{Grid: grid, Priorities: true})
			g.MakeExecutable()
			app.Seed()
			g.Fence()
		})
	}
}

// --- Hot-path microbenchmarks (sharded matching, lock-free stealing,
// batch submission, pooled buffers) ---

// benchExec is the minimal synchronous Executor the matching benchmarks
// run against: Submit executes inline, so the measured cost is the match
// path itself (shard lock, shell fill, dispatch) without worker handoff.
type benchExec struct{ tr trace.Collector }

func (e *benchExec) Rank() int           { return 0 }
func (e *benchExec) Size() int           { return 1 }
func (e *benchExec) Submit(t *core.Task) { t.Execute(0) }
func (e *benchExec) SubmitBatch(ts []*core.Task) {
	for _, t := range ts {
		t.Execute(0)
	}
}
func (e *benchExec) Deliver(int, core.Delivery)      {}
func (e *benchExec) Broadcast(map[int]core.Delivery) {}
func (e *benchExec) TracksData() bool                { return true }
func (e *benchExec) Obs() obs.Recorder               { return nil }
func (e *benchExec) Fence()                          {}
func (e *benchExec) Activate()                       {}
func (e *benchExec) Deactivate()                     {}
func (e *benchExec) Tracer() *trace.Collector        { return &e.tr }

// seedMatcher replicates the pre-sharding local-delivery path end to end —
// the SendCopy value clone, one mutex guarding one map for the whole TT, a
// fresh shell and inputs slice per task ID, and a fresh task object plus a
// body call per completed match — as the contention baseline for
// BenchmarkShardedMatch. The sharded runtime path replaces the single
// mutex with striped locks and the per-task allocations with recycled
// shells; everything else here is work both versions pay.
type seedMatcher struct {
	mu       sync.Mutex
	shells   map[any]*seedShell
	keymap   func(key any) int   // owner resolution, as in routeEdges
	priomap  func(key any) int64 // task priority, as in maybeReady
	body     func(t *seedTask)
	inflight atomic.Int64 // termination counter (Activate/Deactivate)
	ran      atomic.Int64 // tracer TasksExecuted
	copies   atomic.Int64 // tracer DataCopies
}

type seedShell struct {
	inputs    []any
	satisfied uint64
}

type seedTask struct {
	key    any
	inputs []any
	prio   int64
}

func (m *seedMatcher) send(key any, term int, v any) {
	m.inflight.Add(1) // Activate
	if m.keymap(key) != 0 {
		panic("bench: key not local")
	}
	v = serde.CloneAny(v) // local SendCopy semantics, as in routeEdges
	m.copies.Add(1)
	m.mu.Lock()
	sh := m.shells[key]
	if sh == nil {
		sh = &seedShell{inputs: make([]any, 2)}
		m.shells[key] = sh
	}
	sh.inputs[term] = v
	sh.satisfied |= 1 << uint(term)
	if sh.satisfied != 3 {
		m.mu.Unlock()
		m.inflight.Add(-1) // Deactivate
		return
	}
	delete(m.shells, key)
	m.mu.Unlock()
	m.body(&seedTask{key: key, inputs: sh.inputs, prio: m.priomap(key)})
	m.ran.Add(1)
	m.inflight.Add(-1) // Deactivate
}

// BenchmarkShardedMatch measures two-input task matching under concurrent
// injectors: each op delivers both halves of one unique task ID. The
// "sharded" variant is the real runtime path (striped locks, recycled
// shells, inline execute); "mutexmap" replicates the seed's single-mutex
// map. The sharded table should win clearly at 8 injectors.
func BenchmarkShardedMatch(b *testing.B) {
	for _, inj := range []int{1, 8} {
		b.Run(fmt.Sprintf("sharded/injectors=%d", inj), func(b *testing.B) {
			g := core.NewGraph(&benchExec{})
			e0 := core.NewEdge("m0")
			e1 := core.NewEdge("m1")
			g.AddTT(core.TTSpec{
				Name:   "join",
				Inputs: []core.InputSpec{{Edge: e0}, {Edge: e1}},
				Body:   func(*core.TaskContext) {},
				Keymap: func(any) int { return 0 },
			})
			g.Seal()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := (b.N + inj - 1) / inj
			for w := 0; w < inj; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					hi := (w + 1) * per
					if hi > b.N {
						hi = b.N
					}
					for k := w * per; k < hi; k++ {
						key := serde.Int2{k, 0}
						g.Seed(e0, key, 1)
						g.Seed(e1, key, 1)
					}
				}(w)
			}
			wg.Wait()
		})
		b.Run(fmt.Sprintf("mutexmap/injectors=%d", inj), func(b *testing.B) {
			m := &seedMatcher{
				shells:  make(map[any]*seedShell),
				keymap:  func(any) int { return 0 },
				priomap: func(any) int64 { return 0 },
				body:    func(*seedTask) {},
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := (b.N + inj - 1) / inj
			for w := 0; w < inj; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					hi := (w + 1) * per
					if hi > b.N {
						hi = b.N
					}
					for k := w * per; k < hi; k++ {
						key := serde.Int2{k, 0}
						m.send(key, 0, 1)
						m.send(key, 1, 1)
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// benchSteal has one owner pushing (and occasionally popping) b.N items
// while `thieves` goroutines steal concurrently — the shape of a loaded
// worker being drained by idle peers.
func benchSteal(b *testing.B, d *sched.Deque, thieves int) {
	b.ReportAllocs()
	var consumed atomic.Int64
	n := int64(b.N)
	var wg sync.WaitGroup
	for t := 0; t < thieves; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for consumed.Load() < n {
				if _, ok := d.Steal(); ok {
					consumed.Add(1)
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.PushBottom(sched.Item{})
		if i&7 == 0 {
			if _, ok := d.PopBottom(); ok {
				consumed.Add(1)
			}
		}
	}
	for consumed.Load() < n {
		if _, ok := d.PopBottom(); ok {
			consumed.Add(1)
		}
	}
	b.StopTimer()
	wg.Wait()
}

// BenchmarkChaseLevSteal drains the lock-free Chase-Lev deque with 8
// concurrent thieves.
func BenchmarkChaseLevSteal(b *testing.B) {
	b.Run("chaselev", func(b *testing.B) { benchSteal(b, sched.NewDeque(), 8) })
}

// BenchmarkSubmitBatch measures fan-out submission into a stealing pool:
// chunks of 64 ready tasks submitted one Push per task versus one
// PushBatch per chunk.
func BenchmarkSubmitBatch(b *testing.B) {
	const chunk = 64
	run := func(b *testing.B, batched bool) {
		var done sync.WaitGroup
		p := sched.NewPool(8, sched.PolicyStealPrio, func(worker int, it sched.Item) { done.Done() })
		p.Start()
		defer p.Stop()
		buf := make([]sched.Item, chunk)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += chunk {
			n := chunk
			if i+n > b.N {
				n = b.N - i
			}
			done.Add(n)
			if batched {
				p.SubmitBatch(buf[:n])
			} else {
				for j := 0; j < n; j++ {
					p.Submit(buf[j])
				}
			}
		}
		done.Wait()
	}
	b.Run("singles", func(b *testing.B) { run(b, false) })
	b.Run("batch", func(b *testing.B) { run(b, true) })
}

// --- Scheduler benches (DESIGN.md §13): the contended fan-out, the
// priority-inversion window and the run-next inlining ablation of the
// banded stealing pool. bench/'s potrf_fine workload is the end-to-end
// guard; these isolate the pool. ---

// BenchmarkSchedFanoutContended is the contended fan-out workload: every
// op seeds one root that unfolds into a 4-ary tree of depth 3 (85 tasks)
// through SubmitLocalBatch while 8 workers chew concurrently, so
// submissions, pops, and wakeups all contend. Priorities vary by depth,
// so the pool does real banding work rather than degenerate single-bucket
// traffic.
func BenchmarkSchedFanoutContended(b *testing.B) {
	const (
		workers = 8
		fan     = 4
		depth   = 3
		tasks   = 1 + fan + fan*fan + fan*fan*fan // 85
	)
	b.Run("stealprio", func(b *testing.B) {
		var wg sync.WaitGroup
		var p *sched.Pool
		body := func(w int, it sched.Item) {
			d := it.Value.(int)
			if d > 0 {
				batch := make([]sched.Item, fan)
				for i := range batch {
					batch[i] = sched.Item{Priority: int64((d-1)*20 + i), Value: d - 1}
				}
				wg.Add(fan)
				p.SubmitLocalBatch(w, batch)
			}
			wg.Done()
		}
		p = sched.NewPool(workers, sched.PolicyStealPrio, body)
		p.Start()
		defer p.Stop()
		roots := make([]sched.Item, b.N)
		for i := range roots {
			roots[i] = sched.Item{Priority: depth * 20, Value: depth}
		}
		wg.Add(b.N)
		b.ResetTimer()
		p.SubmitBatch(roots)
		wg.Wait()
		b.StopTimer()
		b.ReportMetric(tasks, "tasks/op")
	})
}

// BenchmarkSchedPriorityInversion loads a stopped pool with a bulk of
// low-priority items and then a few high-priority stragglers (submitted
// last, the adversarial order for FIFO-shaped queues), starts the
// workers, and measures where in the completion sequence the
// high-priority items land. hipri_window is the mean completion index of
// high-priority items as a fraction of the total: exact priority order
// pins it near 0, a priority-blind queue pushes it toward 1.
func BenchmarkSchedPriorityInversion(b *testing.B) {
	const (
		workers = 4
		bulk    = 4096
		hi      = 64
	)
	b.Run("stealprio", func(b *testing.B) {
		var windowSum float64
		for i := 0; i < b.N; i++ {
			var seq, hiIdxSum atomic.Int64
			var wg sync.WaitGroup
			p := sched.NewPool(workers, sched.PolicyStealPrio, func(w int, it sched.Item) {
				idx := seq.Add(1)
				if it.Priority > 1 {
					hiIdxSum.Add(idx)
				}
				wg.Done()
			})
			wg.Add(bulk + hi)
			batch := make([]sched.Item, bulk)
			for j := range batch {
				batch[j] = sched.Item{Priority: 1, Value: j}
			}
			p.SubmitBatch(batch)
			stragglers := make([]sched.Item, hi)
			for j := range stragglers {
				stragglers[j] = sched.Item{Priority: 1000, Value: j}
			}
			p.SubmitBatch(stragglers)
			p.Start()
			wg.Wait()
			p.Stop()
			mean := float64(hiIdxSum.Load()) / hi
			windowSum += mean / (bulk + hi)
		}
		b.ReportMetric(windowSum/float64(b.N), "hipri_window")
	})
}

// benchSchedChain runs dependency chains through SubmitLocal — the shape
// successor inlining exists for. One op is one task; 16 chains run
// concurrently on 8 workers so the no-inline variant pays real queue and
// wakeup traffic.
func benchSchedChain(b *testing.B, inline bool) {
	const (
		workers = 8
		chains  = 16
	)
	length := b.N/chains + 1
	var wg sync.WaitGroup
	var p *sched.Pool
	body := func(w int, it sched.Item) {
		v := it.Value.(int)
		if v > 0 {
			wg.Add(1)
			p.SubmitLocal(w, sched.Item{Priority: int64(v % 50), Value: v - 1})
		}
		wg.Done()
	}
	p = sched.NewPool(workers, sched.PolicyStealPrio, body)
	if !inline {
		p.DisableRunNext()
	}
	p.Start()
	defer p.Stop()
	roots := make([]sched.Item, chains)
	for i := range roots {
		roots[i] = sched.Item{Priority: int64(i), Value: length}
	}
	wg.Add(chains)
	b.ResetTimer()
	p.SubmitBatch(roots)
	wg.Wait()
	b.StopTimer()
	st := p.Stats()
	total := float64(chains * (length + 1))
	b.ReportMetric(float64(st.InlineRuns)/total, "inlined_frac")
}

// BenchmarkSchedInline is the run-next ablation: identical chain workload
// with the slot on vs off.
func BenchmarkSchedInline(b *testing.B) {
	b.Run("on", func(b *testing.B) { benchSchedChain(b, true) })
	b.Run("off", func(b *testing.B) { benchSchedChain(b, false) })
}

// BenchmarkPooledTileClone guards the steady-state allocation profile of
// the tile pool: Clone draws from the pool, Release returns, so after
// warmup each iteration should be ~0 allocs/op (versus one 128 KiB
// payload allocation per clone without pooling).
func BenchmarkPooledTileClone(b *testing.B) {
	t := tile.New(128, 128)
	b.SetBytes(int64(t.PayloadSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := t.Clone()
		c.Release()
	}
}

// BenchmarkPooledSerdeEncode guards the encode-buffer pool: GetBuffer /
// Release recycle the backing array across iterations.
func BenchmarkPooledSerdeEncode(b *testing.B) {
	t := tile.New(64, 64)
	b.SetBytes(int64(t.PayloadSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := serde.GetBuffer(256)
		serde.EncodeAny(buf, t)
		buf.Release()
	}
}

// --- Communication-layer benches (pipelined broadcast) ---

// benchCommBcast drives one iteration = broadcasting a 512x512 float64
// tile (2 MiB) from rank 0 to all 8 ranks over a bandwidth-limited fabric
// (~21 ms per whole-payload hop at 100 MB/s), acked through a streaming
// reducer. The store-and-forward critical path pays the full payload time
// per tree level; the pipelined path pays it roughly once.
func benchCommBcast(b *testing.B, chunk int) {
	const ranks = 8
	n := b.N
	o := backend.PaRSEC()
	o.WorkersPerRank = 1
	o.BcastChunk = chunk
	o.Net = simnet.Config{Latency: 20 * time.Microsecond, BandwidthBps: 1e8}
	backend.New(ranks, o).Run(func(p *backend.Proc) {
		g := ttg.NewGraphOn(p)
		drive := ttg.NewEdge[ttg.Int1, ttg.Void]("drive")
		data := ttg.NewEdge[ttg.Int2, *tile.Tile]("data")
		ack := ttg.NewEdge[ttg.Int1, ttg.Void]("ack")
		payload := tile.New(512, 512)
		ttg.MakeTT1(g, "root", ttg.Input(drive), ttg.Out(data),
			func(x *ttg.Ctx[ttg.Int1], _ ttg.Void) {
				it := x.Key()[0]
				keys := make([]ttg.Int2, ranks)
				for r := 0; r < ranks; r++ {
					keys[r] = ttg.Int2{it, r}
				}
				ttg.BroadcastM(x, data, keys, payload, ttg.Borrow)
			},
			ttg.Options[ttg.Int1]{Keymap: func(ttg.Int1) int { return 0 }},
		)
		ttg.MakeTT1(g, "recv", ttg.Input(data), ttg.Out(ack),
			func(x *ttg.Ctx[ttg.Int2], t *tile.Tile) {
				ttg.Send(x, ack, ttg.Int1{x.Key()[0]}, ttg.Void{})
			},
			ttg.Options[ttg.Int2]{Keymap: func(k ttg.Int2) int { return k[1] }},
		)
		ttg.MakeTT1(g, "next",
			ttg.ReduceInput(ack, func(a, _ ttg.Void) ttg.Void { return a }, func(ttg.Int1) int { return ranks }),
			ttg.Out(drive),
			func(x *ttg.Ctx[ttg.Int1], _ ttg.Void) {
				it := x.Key()[0]
				if it+1 < n {
					ttg.Send(x, drive, ttg.Int1{it + 1}, ttg.Void{})
				}
			},
			ttg.Options[ttg.Int1]{Keymap: func(ttg.Int1) int { return 0 }},
		)
		g.MakeExecutable()
		if p.Rank() == 0 {
			b.ResetTimer()
			ttg.Seed(g, drive, ttg.Int1{0}, ttg.Void{})
		}
		g.Fence()
	})
	b.SetBytes(int64(512 * 512 * 8))
}

// BenchmarkCommBroadcastPipelined streams the tile in 128 KiB chunks so
// each relay forwards chunk k while receiving chunk k+1; latency scales
// like depth + nchunks rather than depth * payload.
func BenchmarkCommBroadcastPipelined(b *testing.B) {
	benchCommBcast(b, 0)
}

// BenchmarkCommBroadcastStoreForward is the ablation: each relay receives
// the whole 2 MiB frame before forwarding it (BcastChunk < 0).
func BenchmarkCommBroadcastStoreForward(b *testing.B) {
	benchCommBcast(b, -1)
}

// --- Data-lifetime microbenchmarks (DESIGN.md §8): read-only fan-out
// sharing vs the always-clone default, and lazy copy-on-write
// materialization for writers. ---

// benchCoWFanout broadcasts a 64 KiB payload to 8 consumers per
// iteration. With read-only terminals the consumers share one tracked
// value (zero clones); with default-access terminals every consumer gets
// its own deep copy — the pre-access-mode behavior.
func benchCoWFanout(b *testing.B, access func(ttg.In[ttg.Int2, []float64]) ttg.In[ttg.Int2, []float64]) {
	const fanout = 8
	const words = 8 << 10
	n := b.N
	b.ReportAllocs()
	b.SetBytes(8 * words * fanout)
	ttg.Run(ttg.Config{Ranks: 1, WorkersPerRank: 1}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		drive := ttg.NewEdge[ttg.Int1, float64]("drive")
		fan := ttg.NewEdge[ttg.Int2, []float64]("fan")
		var sink atomic.Int64
		ttg.MakeTT1(g, "producer", ttg.Input(drive), ttg.Out(fan),
			func(x *ttg.Ctx[ttg.Int1], _ float64) {
				v := make([]float64, words)
				v[0] = 1
				keys := make([]ttg.Int2, fanout)
				for c := range keys {
					keys[c] = ttg.Int2{x.Key()[0], c}
				}
				ttg.Broadcast(x, fan, keys, v)
			})
		ttg.MakeTT1(g, "reader", access(ttg.Input(fan)), nil,
			func(x *ttg.Ctx[ttg.Int2], v []float64) { sink.Add(int64(v[0])) })
		g.MakeExecutable()
		b.ResetTimer()
		for i := 0; i < n; i++ {
			ttg.Seed(g, drive, ttg.Int1{i}, 0)
		}
		g.Fence()
		b.StopTimer()
		if got := sink.Load(); got != int64(n*fanout) {
			b.Fatalf("readers saw %d, want %d", got, n*fanout)
		}
	})
}

func BenchmarkCoWSharedReadFanout(b *testing.B) {
	benchCoWFanout(b, func(in ttg.In[ttg.Int2, []float64]) ttg.In[ttg.Int2, []float64] {
		return in.ReadOnly()
	})
}

func BenchmarkCoWAlwaysCloneFanout(b *testing.B) {
	benchCoWFanout(b, func(in ttg.In[ttg.Int2, []float64]) ttg.In[ttg.Int2, []float64] {
		return in
	})
}

// BenchmarkCoWWriterMaterialize fans one payload to 8 read-write
// consumers: clones materialize lazily at task start and the last live
// reference is taken in place, so at most fanout-1 clones happen instead
// of the eager fanout.
func BenchmarkCoWWriterMaterialize(b *testing.B) {
	const fanout = 8
	const words = 8 << 10
	n := b.N
	b.ReportAllocs()
	ttg.Run(ttg.Config{Ranks: 1, WorkersPerRank: 1}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		drive := ttg.NewEdge[ttg.Int1, float64]("drive")
		fan := ttg.NewEdge[ttg.Int2, []float64]("fan")
		var sink atomic.Int64
		ttg.MakeTT1(g, "producer", ttg.Input(drive), ttg.Out(fan),
			func(x *ttg.Ctx[ttg.Int1], _ float64) {
				v := make([]float64, words)
				keys := make([]ttg.Int2, fanout)
				for c := range keys {
					keys[c] = ttg.Int2{x.Key()[0], c}
				}
				ttg.Broadcast(x, fan, keys, v)
			})
		ttg.MakeTT1(g, "writer", ttg.Input(fan).ReadWrite(), nil,
			func(x *ttg.Ctx[ttg.Int2], v []float64) {
				v[0]++ // exclusive by contract
				sink.Add(int64(v[0]))
			})
		g.MakeExecutable()
		b.ResetTimer()
		for i := 0; i < n; i++ {
			ttg.Seed(g, drive, ttg.Int1{i}, 0)
		}
		g.Fence()
		b.StopTimer()
		if got := sink.Load(); got != int64(n*fanout) {
			b.Fatalf("writers saw %d, want %d", got, n*fanout)
		}
	})
}
