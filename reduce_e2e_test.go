// Hierarchical-reduction end-to-end tests: the randomized
// tree-vs-sequential equivalence property, the owner in-degree bound, the
// unflushed-partial doctor diagnosis, the commutative-finalize misuse panic, and
// the pre-reduction match-table ablation.
package repro

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/backend/sim"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs/live"
	"repro/internal/serde"
	"repro/internal/trace"
	"repro/ttg"
)

func reduceSimMachine() cluster.Machine {
	return cluster.Machine{
		Name: "ideal", Workers: 2,
		KernelRate: 1e9, SmallOpRate: 1e9,
		Latency: 1e-6, Bandwidth: 10e9, CopyBandwidth: 10e9,
	}
}

// contribution is one pre-planned stream message: value val for key,
// emitted from rank src.
type contribution struct {
	key int
	src int
	val float64
}

// runTreeReduction runs nKeys commutative sum streams over the planned
// contributions on a P-rank sim and returns the per-key results plus the
// aggregate trace counters. Keys are owned round-robin shifted by 1 so
// owners differ from the natural seeding ranks.
func runTreeReduction(t *testing.T, ranks int, nKeys int, counts []int, plan []contribution, preReduce bool) (map[int]float64, trace.Snapshot) {
	t.Helper()
	rt := sim.New(sim.Config{
		Ranks: ranks, WorkersPerRank: 2,
		Machine: reduceSimMachine(),
		Flavor:  cluster.Flavor{Name: "bare"},
	})
	var mu sync.Mutex
	got := map[int]float64{}
	rt.Run(func(p *sim.Proc) {
		g := p.NewGraph()
		if !preReduce {
			g.SetPreReduce(false)
		}
		in := core.NewEdge("contrib")
		g.AddTT(core.TTSpec{
			Name: "Acc",
			Inputs: []core.InputSpec{{
				Edge: in,
				Reducer: func(acc, v any) any {
					if acc == nil {
						return v
					}
					return acc.(float64) + v.(float64)
				},
				StreamSize:  func(k core.Key) int { return counts[k.Value().(serde.Int1)[0]] },
				Commutative: true,
			}},
			Keymap: func(k any) int { return (k.(serde.Int1)[0] + 1) % ranks },
			Body: func(ctx *core.TaskContext) {
				k := ctx.Key().Value().(serde.Int1)[0]
				v := ctx.Input(0).(float64)
				mu.Lock()
				got[k] = v
				mu.Unlock()
			},
		})
		g.Seal()
		p.Bind(g)
		for _, c := range plan {
			if c.src == p.Rank() {
				g.Seed(in, serde.Int1{c.key}, c.val)
			}
		}
		p.Fence()
	})
	var snap trace.Snapshot
	for r := 0; r < ranks; r++ {
		snap = snap.Add(rt.Proc(r).Tracer().Snapshot())
	}
	return got, snap
}

// TestTreeReductionEquivalence is the randomized property test: for random
// rank counts, contributor sets, and values, the binomial-tree reduction
// with local pre-reduction must produce exactly the result of the
// sequential owner-rank fold (values are integer-valued floats, so
// addition is exact and any ordering discrepancy would still be invisible;
// what the equality pins is that every contribution is folded exactly once
// and every stream completes). The tree path must also respect the owner
// in-degree bound: at most ceil(log2 P) partial deliveries per key.
func TestTreeReductionEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		rng := rand.New(rand.NewSource(seed))
		ranks := []int{1, 2, 3, 5, 8, 13}[rng.Intn(6)]
		nKeys := 1 + rng.Intn(6)
		counts := make([]int, nKeys)
		var plan []contribution
		want := make([]float64, nKeys)
		for k := 0; k < nKeys; k++ {
			counts[k] = 1 + rng.Intn(17)
			for i := 0; i < counts[k]; i++ {
				c := contribution{key: k, src: rng.Intn(ranks), val: float64(1 + rng.Intn(1000))}
				plan = append(plan, c)
				want[k] += c.val
			}
		}

		tree, snap := runTreeReduction(t, ranks, nKeys, counts, plan, true)
		flat, _ := runTreeReduction(t, ranks, nKeys, counts, plan, false)
		for k := 0; k < nKeys; k++ {
			if tree[k] != want[k] {
				t.Fatalf("seed %d: tree reduction key %d = %v, sequential fold = %v (ranks=%d count=%d)",
					seed, k, tree[k], want[k], ranks, counts[k])
			}
			if flat[k] != want[k] {
				t.Fatalf("seed %d: pre-reduce-off key %d = %v, want %v", seed, k, flat[k], want[k])
			}
		}
		if ranks > 1 {
			bound := int64(nKeys) * int64(math.Ceil(math.Log2(float64(ranks))))
			if snap.ReduceDeliveries > bound {
				t.Fatalf("seed %d: owner received %d tree partials for %d keys on %d ranks, bound %d",
					seed, snap.ReduceDeliveries, nKeys, ranks, bound)
			}
		}
	}
}

// TestUnflushedPartialDoctor pins the misuse diagnosis: a partial parked
// in a combiner slot at fence time (auto-flush disabled stands in for a
// commutative stream whose count never closes) must show up in
// PendingReductions and be called out by the graph doctor's stall report.
func TestUnflushedPartialDoctor(t *testing.T) {
	const ranks = 2
	rt := sim.New(sim.Config{
		Ranks: ranks, WorkersPerRank: 1,
		Machine: reduceSimMachine(),
		Flavor:  cluster.Flavor{Name: "bare"},
	})
	graphs := make([]*core.Graph, ranks)
	rt.Run(func(p *sim.Proc) {
		g := p.NewGraph()
		g.DisableReduceAutoFlush()
		in := core.NewEdge("contrib")
		g.AddTT(core.TTSpec{
			Name: "Acc",
			Inputs: []core.InputSpec{{
				Edge: in,
				Reducer: func(acc, v any) any {
					if acc == nil {
						return v
					}
					return acc.(float64) + v.(float64)
				},
				StreamSize:  func(core.Key) int { return 100 },
				Commutative: true,
			}},
			Keymap: func(any) int { return 0 },
			Body:   func(*core.TaskContext) { t.Error("stream should never complete") },
		})
		g.Seal()
		p.Bind(g)
		graphs[p.Rank()] = g
		if p.Rank() == 1 {
			g.Seed(in, serde.Int1{0}, 1.0)
			g.Seed(in, serde.Int1{0}, 2.0)
		}
		p.Fence()
	})
	if n := graphs[1].PendingReductions(); n != 1 {
		t.Fatalf("rank 1 PendingReductions = %d, want 1 parked slot", n)
	}
	pp := graphs[1].PendingPartials(8)
	if len(pp) != 1 || pp[0].Count != 2 || pp[0].Owner != 0 || pp[0].TT != "Acc" {
		t.Fatalf("PendingPartials = %+v, want one Acc slot with 2 contributions owned by rank 0", pp)
	}
	doc := live.NewDoctor(live.Config{}, rt.LiveTargets()...)
	rep := doc.Diagnose()
	if rep == nil {
		t.Fatal("doctor found nothing with an unflushed partial outstanding")
	}
	if rep.Partials != 1 {
		t.Fatalf("stall report Partials = %d, want 1", rep.Partials)
	}
	if s := rep.String(); !strings.Contains(s, "unflushed partial") || !strings.Contains(s, "Acc") {
		t.Fatalf("stall report does not call out the unflushed partial:\n%s", s)
	}
}

// TestCommutativeFinalizePanics pins the associativity contract: an
// order-based finalize cannot be made coherent with partials parked on
// other ranks, so issuing one (FinalizeSeed here) against a commutative
// terminal must panic loudly, naming the call, rather than truncate the
// reduction.
func TestCommutativeFinalizePanics(t *testing.T) {
	rt := sim.New(sim.Config{
		Ranks: 1, WorkersPerRank: 1,
		Machine: reduceSimMachine(),
		Flavor:  cluster.Flavor{Name: "bare"},
	})
	rt.Run(func(p *sim.Proc) {
		g := p.NewGraph()
		in := core.NewEdge("contrib")
		g.AddTT(core.TTSpec{
			Name: "Acc",
			Inputs: []core.InputSpec{{
				Edge: in,
				Reducer: func(acc, v any) any {
					if acc == nil {
						return v
					}
					return acc.(float64) + v.(float64)
				},
				Commutative: true,
			}},
			Keymap: func(any) int { return 0 },
			Body:   func(*core.TaskContext) {},
		})
		g.Seal()
		p.Bind(g)
		defer func() {
			r := recover()
			if r == nil {
				t.Error("FinalizeSeed on a commutative terminal did not panic")
			} else if msg := r.(string); !strings.Contains(msg, "commutative") || !strings.Contains(msg, "FinalizeSeed") {
				t.Errorf("panic message %q does not name FinalizeSeed and explain the commutative contract", r)
			}
		}()
		g.FinalizeSeed(in, core.KeyOf(serde.Int1{0}))
	})
}

// reduceFanIn runs the contended local-accumulation workload on a real
// backend: gens generator tasks, spread over 8 workers of one rank, each
// stream perContrib contributions into a single commutative sum terminal.
// Returns the aggregate trace snapshot.
func reduceFanIn(gens, perContrib int, preReduce bool) trace.Snapshot {
	var snap trace.Snapshot
	var mu sync.Mutex
	ttg.Run(ttg.Config{Ranks: 1, WorkersPerRank: 8}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		gen := ttg.NewEdge[ttg.Int1, ttg.Void]("gen")
		acc := ttg.NewEdge[ttg.Int1, float64]("acc")
		if !preReduce {
			g.Core().SetPreReduce(false)
		}
		ttg.MakeTT1(g, "Gen", ttg.Input(gen), ttg.Out(acc),
			func(x *ttg.Ctx[ttg.Int1], _ ttg.Void) {
				for i := 0; i < perContrib; i++ {
					ttg.Send(x, acc, ttg.Int1{0}, 1.0)
				}
			},
			ttg.Options[ttg.Int1]{Keymap: func(k ttg.Int1) int { return 0 }},
		)
		total := gens * perContrib
		ttg.MakeTT1(g, "Acc",
			ttg.ReduceInput(acc,
				func(a, v float64) float64 { return a + v },
				func(ttg.Int1) int { return total },
			).Commutative(),
			nil,
			func(x *ttg.Ctx[ttg.Int1], sum float64) {
				if int(sum) != total {
					panic("fan-in sum mismatch")
				}
			},
			ttg.Options[ttg.Int1]{Keymap: func(k ttg.Int1) int { return 0 }},
		)
		g.MakeExecutable()
		for i := 0; i < gens; i++ {
			ttg.Seed(g, gen, ttg.Int1{i}, ttg.Void{})
		}
		g.Fence()
		mu.Lock()
		snap = snap.Add(pc.Stats())
		mu.Unlock()
	})
	return snap
}

// TestPreReduceMatchOpsAblation is the acceptance tripwire for local
// pre-reduction on the contended fan-in (32 generators × 16 contributions
// into one key, 8 workers). Without combiner slots every trip is counted:
// each of the 32 × 16 = 512 contributions takes the match table once, and
// so does the seed of each of the 32 generator tasks — 544, whatever the
// schedule. With them the 512 contributions fold into slots that drain as
// one delivery per flush: 32 + 1 = 33 when the slot drains once, a few
// more when a worker goes idle while the stream is still open.
func TestPreReduceMatchOpsAblation(t *testing.T) {
	const gens, per = 32, 16
	on := reduceFanIn(gens, per, true)
	off := reduceFanIn(gens, per, false)
	if want := int64(gens*per + gens); off.MatchOps != want {
		t.Fatalf("pre-reduction off: %d match ops, want %d (one per contribution and per generator seed)", off.MatchOps, want)
	}
	if on.MatchOps > gens+4 {
		t.Fatalf("pre-reduction on: %d match ops, want <= %d (generator seeds plus a few slot drains)", on.MatchOps, gens+4)
	}
	if on.ReduceLocalFolds == 0 {
		t.Fatal("pre-reduction never folded locally on the fan-in")
	}
	t.Logf("match ops: pre-reduce on=%d off=%d (%.1fx), local folds=%d",
		on.MatchOps, off.MatchOps, float64(off.MatchOps)/float64(on.MatchOps), on.ReduceLocalFolds)
}
