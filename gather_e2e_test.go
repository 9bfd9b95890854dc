// Zero-copy wire path end-to-end tests: the gather/scatter protocol must
// be numerically invisible (bit-identical results with gather sends
// on or off) while its counters prove the payload bytes actually skipped
// the archive copies, on the real transports and in the virtual-time cost
// model alike.
package repro

import (
	"sync"
	"testing"

	"repro/internal/apps/bspmm"
	"repro/internal/apps/cholesky"
	"repro/internal/backend"
	"repro/internal/backend/sim"
	"repro/internal/cluster"
	"repro/internal/serde"
	"repro/internal/sparse"
	"repro/internal/tile"
	"repro/internal/trace"
	"repro/ttg"
)

// gatherOpts sizes preset o to 2 workers per rank and, when on is false,
// turns its gather sends off (the per-runtime ablation switch).
func gatherOpts(o backend.Options, on bool) backend.Options {
	o.WorkersPerRank = 2
	if !on {
		o.GatherThreshold = -1
	}
	return o
}

// runCholeskyGather factorizes a 4x4-tile matrix on 4 real ranks and
// returns the result tiles plus the cluster-summed trace. 16x16 tiles are
// 2 KiB on the wire: above the 1 KiB gather floor, so sends take the
// gather path when enabled.
func runCholeskyGather(t *testing.T, preset backend.Options, on bool) (map[ttg.Int2]*tile.Tile, trace.Snapshot) {
	t.Helper()
	grid := tile.Grid{N: 64, NB: 16}
	var mu sync.Mutex
	results := map[ttg.Int2]*tile.Tile{}
	var sum trace.Snapshot
	backend.New(4, gatherOpts(preset, on)).Run(func(p *backend.Proc) {
		g := ttg.NewGraphOn(p)
		app := cholesky.Build(g, cholesky.Options{
			Grid:       grid,
			Variant:    cholesky.TTGVariant,
			Priorities: true,
			OnResult: func(i, j int, tl *tile.Tile) {
				mu.Lock()
				results[ttg.Int2{i, j}] = tl
				mu.Unlock()
			},
		})
		g.MakeExecutable()
		app.Seed()
		g.Fence()
		mu.Lock()
		sum = sum.Add(p.Stats())
		mu.Unlock()
	})
	if maxErr, ok := cholesky.Verify(grid, results); !ok {
		t.Fatalf("L·Lᵀ ≠ A: max error %g", maxErr)
	}
	return results, sum
}

func expectBitIdentical(t *testing.T, on, off map[ttg.Int2]*tile.Tile) {
	t.Helper()
	if len(on) != len(off) {
		t.Fatalf("result sets differ: %d tiles with gather, %d without", len(on), len(off))
	}
	for k, a := range on {
		b, ok := off[k]
		if !ok {
			t.Fatalf("tile %v missing from gather-off run", k)
		}
		if len(a.Data) != len(b.Data) {
			t.Fatalf("tile %v shape differs", k)
		}
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("tile %v element %d differs: %v (gather) vs %v (copy)", k, i, a.Data[i], b.Data[i])
			}
		}
	}
}

// TestCholeskyGatherBitIdentical pins the acceptance property on the
// PaRSEC-model transport: gather on and off produce bit-identical factors,
// and the on-run's counters prove payload bytes really skipped the
// archive path.
func TestCholeskyGatherBitIdentical(t *testing.T) {
	on, snapOn := runCholeskyGather(t, backend.PaRSEC(), true)
	off, snapOff := runCholeskyGather(t, backend.PaRSEC(), false)
	expectBitIdentical(t, on, off)
	if snapOn.GatherSends == 0 {
		t.Fatal("gather on: GatherSends = 0, the zero-copy path never fired")
	}
	if snapOn.BytesZeroCopied == 0 {
		t.Fatal("gather on: BytesZeroCopied = 0")
	}
	if snapOn.ViewDecodes == 0 {
		t.Fatal("gather on: ViewDecodes = 0")
	}
	if snapOff.GatherSends != 0 || snapOff.BytesZeroCopied != 0 {
		t.Fatalf("gather off: counters moved anyway: gather=%d zerocopied=%d",
			snapOff.GatherSends, snapOff.BytesZeroCopied)
	}
	if n := serde.LiveRecvViews(); n != 0 {
		t.Fatalf("LiveRecvViews = %d after both runs, want 0", n)
	}
}

// runBSPMMGather multiplies a block-sparse matrix on the MADNESS-model
// transport and returns the product tiles plus the cluster-summed trace.
func runBSPMMGather(t *testing.T, on bool) (map[ttg.Int2]*tile.Tile, trace.Snapshot) {
	t.Helper()
	spec := sparse.DefaultSpec(40)
	spec.MaxTile = 48
	spec.FuncsMin, spec.FuncsMax = 8, 20
	spec.Box = 120
	m := sparse.Generate(spec)
	var mu sync.Mutex
	results := map[ttg.Int2]*tile.Tile{}
	var sum trace.Snapshot
	backend.New(4, gatherOpts(backend.MADNESS(), on)).Run(func(p *backend.Proc) {
		g := ttg.NewGraphOn(p)
		app := bspmm.Build(g, bspmm.Options{
			A:       m,
			Variant: bspmm.TTGVariant,
			OnResult: func(i, j int, tl *tile.Tile) {
				mu.Lock()
				results[ttg.Int2{i, j}] = tl
				mu.Unlock()
			},
		})
		g.MakeExecutable()
		app.Seed()
		g.Fence()
		mu.Lock()
		sum = sum.Add(p.Stats())
		mu.Unlock()
	})
	return results, sum
}

// TestBSPMMGatherBitIdentical is the block-sparse counterpart: mixed tile
// sizes straddle the gather floor, so both wire paths run in one job and
// must still produce bit-identical products.
func TestBSPMMGatherBitIdentical(t *testing.T) {
	on, snapOn := runBSPMMGather(t, true)
	off, snapOff := runBSPMMGather(t, false)
	expectBitIdentical(t, on, off)
	if snapOn.GatherSends == 0 {
		t.Fatal("gather on: GatherSends = 0")
	}
	if snapOn.BytesZeroCopied == 0 {
		t.Fatal("gather on: BytesZeroCopied = 0")
	}
	if snapOff.GatherSends != 0 {
		t.Fatalf("gather off: GatherSends = %d, want 0", snapOff.GatherSends)
	}
	if n := serde.LiveRecvViews(); n != 0 {
		t.Fatalf("LiveRecvViews = %d after both runs, want 0", n)
	}
}

// TestSimGatherCostModel checks the virtual-time backend charges the
// zero-copy path: on a MADNESS-flavor cluster (no splitmd, every tile
// archives) the phantom Cholesky must run strictly faster with gather on —
// the deserialize copy disappears and most serialize copies become
// snapshots or vanish — while executing the identical task set, and the
// sim's counters must mirror the real transports'.
func TestSimGatherCostModel(t *testing.T) {
	grid := tile.Grid{N: 16 * 512, NB: 512}
	machine := cluster.Hawk()
	run := func(on bool) (drain float64, tasks int64, snap trace.Snapshot) {
		fl := cluster.MadnessFlavor()
		if !on {
			fl.GatherThreshold = -1
		}
		rt := sim.New(sim.Config{
			Ranks:   4,
			Machine: machine,
			Flavor:  fl,
			Cost:    cholesky.CostModel(grid, machine),
		})
		var mu sync.Mutex
		rt.Run(func(p *sim.Proc) {
			g := ttg.NewGraphOn(p)
			app := cholesky.Build(g, cholesky.Options{Grid: grid, Phantom: true})
			g.MakeExecutable()
			app.Seed()
			g.Fence()
			mu.Lock()
			s := p.Tracer().Snapshot()
			tasks += s.TasksExecuted
			snap = snap.Add(s)
			mu.Unlock()
		})
		return rt.LastDrainTime(), tasks, snap
	}
	tOn, tasksOn, snapOn := run(true)
	tOff, tasksOff, snapOff := run(false)
	if tasksOn != tasksOff {
		t.Fatalf("task counts differ: %d with gather, %d without", tasksOn, tasksOff)
	}
	if snapOn.GatherSends == 0 || snapOn.BytesZeroCopied == 0 {
		t.Fatalf("sim gather counters never moved: gather=%d zerocopied=%d",
			snapOn.GatherSends, snapOn.BytesZeroCopied)
	}
	if snapOff.GatherSends != 0 {
		t.Fatalf("gather off: sim GatherSends = %d, want 0", snapOff.GatherSends)
	}
	if snapOff.CopySends == 0 {
		t.Fatal("gather off: sim CopySends never moved")
	}
	if tOn >= tOff {
		t.Fatalf("virtual time did not improve: %.6fs with gather, %.6fs without", tOn, tOff)
	}
	t.Logf("sim 16x16 potrf madness-flavor 4 ranks: %.4fs gather vs %.4fs copy (%.1f%% faster)",
		tOn, tOff, 100*(tOff-tOn)/tOff)
}
