package sim

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/serde"
)

func idealMachine() cluster.Machine {
	return cluster.Machine{
		Name: "ideal", Workers: 4,
		KernelRate: 1e9, SmallOpRate: 1e9,
		Latency: 1e-6, Bandwidth: 10e9, CopyBandwidth: 10e9,
	}
}

// buildIndependent builds a bag of n independent tasks of fixed cost.
func buildIndependent(p *Proc, ranks int) (*core.Graph, *core.Edge) {
	g := p.NewGraph()
	in := core.NewEdge("in")
	g.AddTT(core.TTSpec{
		Name:   "work",
		Inputs: []core.InputSpec{{Edge: in}},
		Keymap: func(k any) int { return k.(serde.Int1)[0] % ranks },
		Body:   func(ctx *core.TaskContext) {},
	})
	g.Seal()
	return g, in
}

func runIndependent(ranks, workers, tasks int, taskCost float64) float64 {
	rt := New(Config{
		Ranks:          ranks,
		WorkersPerRank: workers,
		Machine:        idealMachine(),
		Flavor:         cluster.Flavor{Name: "bare"},
		Cost:           func(*core.Task) float64 { return taskCost },
	})
	rt.Run(func(p *Proc) {
		g, in := buildIndependent(p, ranks)
		p.Bind(g)
		if p.Rank() == 0 {
			for k := 0; k < tasks; k++ {
				g.Seed(in, serde.Int1{k}, 1.0)
			}
		}
		p.Fence()
	})
	return rt.LastDrainTime()
}

// TestVirtualTimeScalesWithWorkers: n independent unit tasks on w workers
// take ~n/w task-times.
func TestVirtualTimeScalesWithWorkers(t *testing.T) {
	const cost = 1e-3
	t1 := runIndependent(1, 1, 64, cost)
	t4 := runIndependent(1, 4, 64, cost)
	if t1 < 64*cost*0.99 {
		t.Fatalf("1 worker: %v < expected 64ms", t1)
	}
	speedup := t1 / t4
	if speedup < 3.5 || speedup > 4.5 {
		t.Fatalf("4-worker speedup = %.2f, want ~4", speedup)
	}
}

// TestVirtualTimeStrongScalesAcrossRanks: tasks spread over ranks.
func TestVirtualTimeStrongScalesAcrossRanks(t *testing.T) {
	const cost = 1e-3
	t1 := runIndependent(1, 2, 128, cost)
	t4 := runIndependent(4, 2, 128, cost)
	speedup := t1 / t4
	if speedup < 3.0 || speedup > 5.0 {
		t.Fatalf("4-rank speedup = %.2f, want ~4 (t1=%v t4=%v)", speedup, t1, t4)
	}
}

// runAllToAll has every rank seed every other rank, fig13's projection
// pattern: rank r sends m contributions to each other rank's key through
// a commutative streaming terminal and m work tasks to each other rank.
// Task costs vary by key, so the clock and the profile's busy sums follow
// the order in which the seeds reach the engine and the reductions flush.
func runAllToAll(ranks, m int) (float64, map[string]TTStat) {
	rt := New(Config{
		Ranks: ranks, WorkersPerRank: 2, Machine: idealMachine(),
		Flavor: cluster.Flavor{Name: "bare"},
		Cost: func(t *core.Task) float64 {
			return 1e-5 * float64(1+core.Unpack[serde.Int2](t.Key)[1]%7) / 3
		},
	})
	rt.Run(func(p *Proc) {
		g := p.NewGraph()
		acc, work := core.NewEdge("acc"), core.NewEdge("work")
		owner := func(k any) int { return k.(serde.Int2)[0] }
		g.AddTT(core.TTSpec{
			Name: "sum",
			Inputs: []core.InputSpec{{
				Edge:        acc,
				Reducer:     func(a, v any) any { x, _ := a.(float64); return x + v.(float64) },
				StreamSize:  func(core.Key) int { return (ranks - 1) * m },
				Commutative: true,
			}},
			Keymap: owner,
			Body:   func(ctx *core.TaskContext) {},
		})
		g.AddTT(core.TTSpec{
			Name:   "work",
			Inputs: []core.InputSpec{{Edge: work}},
			Keymap: owner,
			Body:   func(ctx *core.TaskContext) {},
		})
		g.Seal()
		p.Bind(g)
		for d := range ranks {
			if d == p.Rank() {
				continue
			}
			for j := range m {
				g.Seed(acc, serde.Int2{d, 0}, float64(j))
				g.Seed(work, serde.Int2{d, p.Rank()*m + j}, 0.0)
			}
		}
		p.Fence()
	})
	return rt.LastDrainTime(), rt.Profile()
}

// TestDeterministicVirtualTime: identical runs give identical clocks, and
// a run whose every rank seeds every other rank gives the same clock and
// profile whatever GOMAXPROCS was when its graphs were built — the rank
// mains' interleaving and the combiner shard count must not show.
func TestDeterministicVirtualTime(t *testing.T) {
	a := runIndependent(4, 3, 100, 1e-4)
	b := runIndependent(4, 3, 100, 1e-4)
	if a != b {
		t.Fatalf("virtual time not deterministic: %v vs %v", a, b)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	t1, p1 := runAllToAll(6, 40)
	runtime.GOMAXPROCS(8)
	t8, p8 := runAllToAll(6, 40)
	if t1 != t8 || !reflect.DeepEqual(p1, p8) {
		t.Fatalf("all-to-all seeding depends on GOMAXPROCS: %v %v at 1, %v %v at 8", t1, p1, t8, p8)
	}
	if p1["sum"].Tasks != 6 || p1["work"].Tasks != 6*5*40 {
		t.Fatalf("profile %v: want 6 sum and 1200 work tasks", p1)
	}
}

// TestCommunicationCostVisible: a chain hopping between two ranks pays
// latency per hop; with higher latency the makespan grows accordingly.
func TestCommunicationCostVisible(t *testing.T) {
	run := func(latency float64) float64 {
		m := idealMachine()
		m.Latency = latency
		rt := New(Config{
			Ranks: 2, WorkersPerRank: 1, Machine: m,
			Flavor: cluster.Flavor{Name: "bare"},
		})
		rt.Run(func(p *Proc) {
			g := p.NewGraph()
			e := core.NewEdge("chain")
			g.AddTT(core.TTSpec{
				Name:    "hop",
				Inputs:  []core.InputSpec{{Edge: e}},
				Outputs: []core.OutputSpec{{Edge: e}},
				Keymap:  func(k any) int { return k.(serde.Int1)[0] % 2 },
				Body: func(ctx *core.TaskContext) {
					k := ctx.Key().Value().(serde.Int1)
					if k[0] < 100 {
						ctx.SendEdge(e, core.KeyOf(serde.Int1{k[0] + 1}), 0.0, core.SendCopy)
					}
				},
			})
			g.Seal()
			p.Bind(g)
			if p.Rank() == 0 {
				g.Seed(e, serde.Int1{0}, 0.0)
			}
			p.Fence()
		})
		return rt.LastDrainTime()
	}
	fast := run(1e-6)
	slow := run(1e-3)
	// 100 hops of ~1ms latency ≈ 100ms extra.
	if slow-fast < 0.05 {
		t.Fatalf("latency not reflected: fast=%v slow=%v", fast, slow)
	}
}

// TestBandwidthShapesTransfer: a large payload takes bytes/bw.
func TestBandwidthShapesTransfer(t *testing.T) {
	m := idealMachine()
	m.Bandwidth = 1e9 // 1 GB/s
	rt := New(Config{
		Ranks: 2, WorkersPerRank: 1, Machine: m,
		Flavor: cluster.Flavor{Name: "bare"},
	})
	rt.Run(func(p *Proc) {
		g := p.NewGraph()
		in := core.NewEdge("in")
		g.AddTT(core.TTSpec{
			Name:   "sink",
			Inputs: []core.InputSpec{{Edge: in}},
			Keymap: func(any) int { return 1 },
			Body:   func(ctx *core.TaskContext) {},
		})
		g.Seal()
		p.Bind(g)
		if p.Rank() == 0 {
			g.Seed(in, serde.Int1{0}, make([]float64, 1<<20)) // 8 MB
		}
		p.Fence()
	})
	// 8MB at 1GB/s = 8ms wire + 2*0.8ms copy.
	got := rt.LastDrainTime()
	if got < 8e-3 || got > 30e-3 {
		t.Fatalf("8MB transfer at 1GB/s took %v, want ~10ms", got)
	}
}

// TestTreeBroadcastBeatsNaive: with many destinations the root NIC
// serializes naive sends; the tree spreads them.
func TestTreeBroadcastBeatsNaive(t *testing.T) {
	run := func(tree bool) float64 {
		const ranks = 64
		m := idealMachine()
		m.Bandwidth = 1e9
		fl := cluster.Flavor{Name: "x", SendCaps: core.SendCaps{TreeBroadcast: tree}}
		rt := New(Config{Ranks: ranks, WorkersPerRank: 1, Machine: m, Flavor: fl})
		rt.Run(func(p *Proc) {
			g := p.NewGraph()
			in := core.NewEdge("in")
			out := core.NewEdge("out")
			g.AddTT(core.TTSpec{
				Name:    "src",
				Inputs:  []core.InputSpec{{Edge: in}},
				Outputs: []core.OutputSpec{{Edge: out}},
				Keymap:  func(any) int { return 0 },
				Body: func(ctx *core.TaskContext) {
					keys := make([]core.Key, ranks)
					for r := 0; r < ranks; r++ {
						keys[r] = core.KeyOf(serde.Int1{r})
					}
					ctx.BroadcastEdge(out, keys, make([]float64, 1<<17), core.SendCopy) // 1 MB
				},
			})
			g.AddTT(core.TTSpec{
				Name:   "dst",
				Inputs: []core.InputSpec{{Edge: out}},
				Keymap: func(k any) int { return k.(serde.Int1)[0] },
				Body:   func(ctx *core.TaskContext) {},
			})
			g.Seal()
			p.Bind(g)
			if p.Rank() == 0 {
				g.Seed(in, serde.Int1{0}, 0.0)
			}
			p.Fence()
		})
		return rt.LastDrainTime()
	}
	naive := run(false)
	tree := run(true)
	if tree >= naive {
		t.Fatalf("tree broadcast (%v) not faster than naive (%v)", tree, naive)
	}
	// 63 sequential 1MB sends at 1GB/s ≈ 63ms+; tree depth 6 ≈ ~6-12ms.
	if naive/tree < 2 {
		t.Fatalf("tree speedup only %.2fx (naive=%v tree=%v)", naive/tree, naive, tree)
	}
}

// runCopier runs, on each of copies independent simulators at once, a
// body that sends one phantom 10 MB simVec to n local consumers (one
// clone each at 1 GB/s) and returns each simulator's drain time.
func runCopier(copies, n int) []float64 {
	m := idealMachine()
	m.CopyBandwidth = 1e9
	out := make([]float64, copies)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt := New(Config{Ranks: 1, WorkersPerRank: 1, Machine: m, Flavor: cluster.Flavor{Name: "bare"}})
			rt.Run(func(p *Proc) {
				g := p.NewGraph()
				in, vec := core.NewEdge("in"), core.NewEdge("vec")
				g.AddTT(core.TTSpec{
					Name:    "copier",
					Inputs:  []core.InputSpec{{Edge: in}},
					Outputs: []core.OutputSpec{{Edge: vec}},
					Body: func(ctx *core.TaskContext) {
						keys := make([]core.Key, n)
						for k := range keys {
							keys[k] = core.Pack(serde.Int1{k})
						}
						ctx.BroadcastEdge(vec, keys, &simVec{n: 10 << 20 / 8}, core.SendCopy)
					},
				})
				g.AddTT(core.TTSpec{
					Name:   "consumer",
					Inputs: []core.InputSpec{{Edge: vec}},
					Body:   func(ctx *core.TaskContext) {},
				})
				g.Seal()
				p.Bind(g)
				g.Seed(in, serde.Int1{0}, 0.0)
				p.Fence()
			})
			out[i] = rt.LastDrainTime()
		}()
	}
	wg.Wait()
	return out
}

// TestCopyChargeExtendsWork: the clones a body's send makes consume worker
// time — n consumers of a 10 MB phantom at 1 GB/s take n × 10 ms.
func TestCopyChargeExtendsWork(t *testing.T) {
	const n = 3
	got := runCopier(1, n)[0]
	if want := n * float64(10<<20) / 1e9; got < want {
		t.Fatalf("%d clones of 10MB at 1GB/s charged %v, want >= %v", n, got, want)
	}
}

// TestConcurrentRuntimes: simulators running side by side in one process
// charge their copies to themselves only — each reads the solo drain time.
func TestConcurrentRuntimes(t *testing.T) {
	solo := runCopier(1, 3)[0]
	for i, got := range runCopier(4, 3) {
		if got != solo {
			t.Errorf("concurrent run %d drained in %v, alone %v", i, got, solo)
		}
	}
}

// TestMultipleFenceEpochs drains twice with increasing virtual time.
func TestMultipleFenceEpochs(t *testing.T) {
	rt := New(Config{
		Ranks: 2, WorkersPerRank: 1, Machine: idealMachine(),
		Flavor: cluster.Flavor{Name: "bare"},
		Cost:   func(*core.Task) float64 { return 1e-3 },
	})
	var drains []float64
	rt.Run(func(p *Proc) {
		g, in := buildIndependent(p, 2)
		p.Bind(g)
		for epoch := 0; epoch < 2; epoch++ {
			if p.Rank() == 0 {
				for k := 0; k < 10; k++ {
					g.Seed(in, serde.Int1{k + epoch*100}, 1.0)
				}
			}
			p.Fence()
			if p.Rank() == 0 {
				drains = append(drains, rt.LastDrainTime())
			}
		}
	})
	if len(drains) != 2 {
		t.Fatalf("got %d drains", len(drains))
	}
	for i, d := range drains {
		if math.Abs(d-5e-3) > 2e-3 {
			t.Fatalf("drain %d = %v, want ~5ms", i, d)
		}
	}
}

// TestSplitMDSkipsSerializationCopies: with splitmd the transfer avoids
// the two copy passes, so it finishes sooner when copies dominate.
type simVec struct {
	n    int
	data []float64 // nil in phantom mode
}

func (v *simVec) PayloadBytes() int { return 8 * v.n }

func init() {
	serde.Register(serde.FuncCodec[*simVec]{
		Enc:  func(b *serde.Buffer, v *simVec) { b.PutVarint(int64(v.n)) },
		Dec:  func(b *serde.Buffer) *simVec { return &simVec{n: int(b.Varint())} },
		Size: func(v *simVec) int { return 8 + 8*v.n },
		Copy: func(v *simVec) *simVec { return &simVec{n: v.n} },
	})
	serde.RegisterSplitMD(&simVec{})
}

func TestSplitMDSkipsSerializationCopies(t *testing.T) {
	run := func(split bool) float64 {
		m := idealMachine()
		m.Bandwidth = 20e9
		m.CopyBandwidth = 1e9 // copies dominate
		fl := cluster.Flavor{Name: "x", SendCaps: core.SendCaps{SplitMD: split, EagerThreshold: 1024, TracksData: true}}
		rt := New(Config{Ranks: 2, WorkersPerRank: 1, Machine: m, Flavor: fl})
		rt.Run(func(p *Proc) {
			g := p.NewGraph()
			in := core.NewEdge("in")
			g.AddTT(core.TTSpec{
				Name:   "sink",
				Inputs: []core.InputSpec{{Edge: in}},
				Keymap: func(any) int { return 1 },
				Body:   func(ctx *core.TaskContext) {},
			})
			g.Seal()
			p.Bind(g)
			if p.Rank() == 0 {
				g.Seed(in, serde.Int1{0}, &simVec{n: 4 << 20}) // 32 MB payload
			}
			p.Fence()
		})
		return rt.LastDrainTime()
	}
	eager := run(false)
	split := run(true)
	if split >= eager {
		t.Fatalf("splitmd (%v) not faster than eager (%v) when copies dominate", split, eager)
	}
}

// TestTimelineExport records spans and renders Chrome trace JSON with
// non-overlapping lanes.
func TestTimelineExport(t *testing.T) {
	m := idealMachine()
	rt := New(Config{
		Ranks: 2, WorkersPerRank: 2, Machine: m,
		Flavor: cluster.Flavor{Name: "bare"},
		Cost:   func(*core.Task) float64 { return 1e-3 },
	})
	tl := rt.EnableTimeline()
	rt.Run(func(p *Proc) {
		g, in := buildIndependent(p, 2)
		p.Bind(g)
		if p.Rank() == 0 {
			for k := 0; k < 8; k++ {
				g.Seed(in, serde.Int1{k}, 1.0)
			}
		}
		p.Fence()
	})
	if len(tl.Spans()) != 8 {
		t.Fatalf("recorded %d spans, want 8", len(tl.Spans()))
	}
	j := tl.ChromeJSON()
	if !strings.HasPrefix(j, "[") || !strings.Contains(j, `"ph":"X"`) || !strings.Contains(j, `"name":"work"`) {
		t.Fatalf("chrome json malformed: %s", j[:min(200, len(j))])
	}
	// With 2 workers per rank, at most lanes 0 and 1 appear per rank.
	if strings.Contains(j, `"tid":2`) {
		t.Fatalf("more lanes than workers: %s", j)
	}
}
