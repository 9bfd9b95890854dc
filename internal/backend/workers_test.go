package backend_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/apps/cholesky"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/obs/live"
	"repro/internal/serde"
	"repro/internal/tile"
	"repro/ttg"
)

// choleskyCounts is the tiled Cholesky's task and delivery count at nt
// tiles a side, worked out from the graph rather than from a run: nt
// POTRFs, nt(nt−1)/2 TRSMs and as many SYRKs, nt(nt−1)(nt−2)/6 GEMMs and
// nt(nt+1)/2 RESULTs. A POTRF takes one input, a TRSM and a SYRK two, a
// GEMM three and a RESULT one; each input is one delivery, which is one
// core.match_ops.
func choleskyCounts(nt int) (tasks, deliveries int64) {
	n := int64(nt)
	potrf, panel, gemm, result := n, n*(n-1), n*(n-1)*(n-2)/6, n*(n+1)/2
	return potrf + panel + gemm + result, potrf + 2*panel + 3*gemm + result
}

// TestCholeskyCountsClosedForm runs the Cholesky in-process on 2 and 4
// workers per rank and checks the rank-summed tasks and match_ops — each
// summed over the workers' TaskCells — against choleskyCounts: 952 and
// 2 312 at nt = 16, 366 016 and 1 065 024 at nt = 128 (left out under the
// race detector). Past the fence each rank's doctor progress reads the
// same task count as its snapshot.
func TestCholeskyCountsClosedForm(t *testing.T) {
	if tasks, deliveries := choleskyCounts(16); tasks != 952 || deliveries != 2312 {
		t.Fatalf("nt=16: closed form gives %d/%d, want 952/2312", tasks, deliveries)
	}
	if tasks, deliveries := choleskyCounts(128); tasks != 366016 || deliveries != 1065024 {
		t.Fatalf("nt=128: closed form gives %d/%d, want 366016/1065024", tasks, deliveries)
	}
	type run struct{ nt, ranks, workers int }
	runs := []run{{1, 1, 2}, {2, 1, 4}, {5, 2, 2}, {16, 1, 2}, {16, 2, 4}}
	if !raceBuild {
		runs = append(runs, run{128, 1, 2})
	}
	for _, r := range runs {
		t.Run(fmt.Sprintf("nt%d/ranks%d/workers%d", r.nt, r.ranks, r.workers), func(t *testing.T) {
			grid := tile.Grid{N: 2 * r.nt, NB: 2}
			var targets []live.Target
			var mu sync.Mutex
			stats := make([]int64, r.ranks)
			var tasks, deliveries int64
			hook := func(ts []live.Target, _ []live.Collector) { targets = ts }
			ttg.RunLive(ttg.Config{Ranks: r.ranks, WorkersPerRank: r.workers, Backend: ttg.PaRSEC}, hook, func(pc *ttg.Process) {
				g := pc.NewGraph()
				app := cholesky.Build(g, cholesky.Options{Grid: grid, Priorities: true})
				g.MakeExecutable()
				app.Seed()
				g.Fence()
				s := pc.Stats()
				mu.Lock()
				stats[pc.Rank()] = s.TasksExecuted
				tasks += s.TasksExecuted
				deliveries += s.MatchOps
				mu.Unlock()
			})
			wantTasks, wantDeliveries := choleskyCounts(r.nt)
			if tasks != wantTasks || deliveries != wantDeliveries {
				t.Errorf("tasks=%d matchops=%d, want %d and %d", tasks, deliveries, wantTasks, wantDeliveries)
			}
			for rank, tg := range targets {
				if got := tg.Progress().Tasks; got != stats[rank] {
					t.Errorf("rank %d: doctor progress reads %d tasks, the snapshot %d", rank, got, stats[rank])
				}
			}
		})
	}
}

// TestTaskRecyclingBound pins how many Tasks a run allocates when a pool
// worker makes some tasks ready and a receive handler (worker −1) the
// others. Two chains of chainLen hops, one on a template that matches in
// the shell table and one on a key box, alternate between 2 ranks × 2
// workers in pairs: the first hop of a pair arrives from the other rank,
// the second is a local send. Every key of both chains sits in match shard
// 0, so one shard's free list serves a whole chain. A chain has at most
// three tasks of a rank out at once, and each worker's own free list can
// hold at most one more, so a rank may allocate no more than maxTasks per
// template, however long the chain. A recycling that takes a task from
// one list and retires it to another — a worker list that only one of
// the two match paths pops — leaks a Task per local hop until the worker
// lists fill. Each run is new, so every run is held to the bound.
func TestTaskRecyclingBound(t *testing.T) {
	const ranks, workers, chainLen, runs = 2, 2, 240, 3
	const maxTasks = 3 + workers
	// Keys whose hash selects shard 0 at every shard count (at most 256).
	var keys []int
	pos := map[int]int{}
	for k := 0; len(keys) < chainLen; k++ {
		if core.HashKey(core.KeyOf(serde.Int1{k}))&255 == 0 {
			pos[k] = len(keys)
			keys = append(keys, k)
		}
	}
	owner := func(p int) int { return p / 2 % ranks }
	for run := 0; run < runs; run++ {
		var mu sync.Mutex
		seen := map[string]map[*core.TaskContext]bool{}
		note := func(ctx *core.TaskContext, tt string) {
			mu.Lock()
			defer mu.Unlock()
			name := fmt.Sprintf("%s/rank%d", tt, ctx.Rank())
			if seen[name] == nil {
				seen[name] = map[*core.TaskContext]bool{}
			}
			// A Task keeps its TaskContext, so a new context is a new Task.
			seen[name][ctx] = true
		}
		rt := backend.New(ranks, withWorkers(backend.PaRSEC(), workers))
		rt.Run(func(p *backend.Proc) {
			g := p.NewGraph()
			es, ed := core.NewEdge("shell"), core.NewEdge("dense")
			g.AddTT(core.TTSpec{
				Name:    "shell",
				Inputs:  []core.InputSpec{{Edge: es}},
				Outputs: []core.OutputSpec{{Edge: es}},
				Keymap:  func(k any) int { return owner(pos[k.(serde.Int1)[0]]) },
				Body: func(ctx *core.TaskContext) {
					note(ctx, "shell")
					if next := pos[ctx.Key().Value().(serde.Int1)[0]] + 1; next < chainLen {
						ctx.SendEdge(es, core.KeyOf(serde.Int1{keys[next]}), next, core.SendCopy)
					}
				},
			})
			// Slot p<<8 is in shard 0 too: a key box's tasks come from the
			// shard its slot index selects.
			g.AddTT(core.TTSpec{
				Name:    "dense",
				Inputs:  []core.InputSpec{{Edge: ed}},
				Outputs: []core.OutputSpec{{Edge: ed}},
				Keymap:  func(k any) int { return owner(k.(serde.Int1)[0]) },
				Dense: &core.DenseKeys{
					Slots: chainLen << 8,
					Index: func(k core.Key) int { return k.Value().(serde.Int1)[0] << 8 },
					KeyAt: func(i int) core.Key { return core.KeyOf(serde.Int1{i >> 8}) },
				},
				Body: func(ctx *core.TaskContext) {
					note(ctx, "dense")
					if next := ctx.Key().Value().(serde.Int1)[0] + 1; next < chainLen {
						ctx.SendEdge(ed, core.KeyOf(serde.Int1{next}), next, core.SendCopy)
					}
				},
			})
			g.Seal()
			p.Bind(g)
			if p.Rank() == owner(0) {
				g.Seed(es, serde.Int1{keys[0]}, 0)
				g.Seed(ed, serde.Int1{0}, 0)
			}
			g.Fence()
			if s := p.Stats(); s.TasksExecuted != chainLen {
				t.Errorf("run %d rank %d: %d tasks ran, want %d", run, p.Rank(), s.TasksExecuted, chainLen)
			}
		})
		if len(seen) != 2*ranks {
			t.Fatalf("run %d: tasks ran under %d template/rank pairs, want %d", run, len(seen), 2*ranks)
		}
		for name, ctxs := range seen {
			if len(ctxs) > maxTasks {
				t.Errorf("run %d: %s allocated %d Tasks for %d hops, want at most %d", run, name, len(ctxs), chainLen/ranks, maxTasks)
			}
		}
	}
}
