package experiments

import (
	"strings"
	"testing"

	"repro/internal/apps/cholesky"
	"repro/internal/backend/sim"
	"repro/internal/cluster"
	"repro/internal/tile"
	"repro/ttg"
)

// The experiment tests assert the paper's qualitative claims — who wins
// and roughly by how much — on the Quick sweeps. Absolute values are
// model outputs, pinned byte for byte by TestFigureDigests rather than
// asserted here. Simulators share no state, so the tests run in parallel.

func maxX(f Figure) float64 {
	m := 0.0
	for _, p := range f.Points {
		if p.X > m {
			m = p.X
		}
	}
	return m
}

func TestFig5TaskBasedSeparation(t *testing.T) {
	t.Parallel()
	f := Fig5(Quick)
	x := maxX(f)
	taskBased := []string{"TTG/PaRSEC", "TTG/MADNESS", "DPLASMA", "Chameleon"}
	bulkSync := []string{"SLATE", "ScaLAPACK"}
	worstTask, bestBulk := 1e30, 0.0
	for _, s := range taskBased {
		v, ok := f.Get(s, x)
		if !ok {
			t.Fatalf("missing %s at %g", s, x)
		}
		if v < worstTask {
			worstTask = v
		}
	}
	for _, s := range bulkSync {
		v, ok := f.Get(s, x)
		if !ok {
			t.Fatalf("missing %s at %g", s, x)
		}
		if v > bestBulk {
			bestBulk = v
		}
	}
	if worstTask <= bestBulk {
		t.Fatalf("task-based group (min %.3g) does not separate from bulk-synchronous (max %.3g)", worstTask, bestBulk)
	}
}

func TestFig5WeakScalingGrows(t *testing.T) {
	t.Parallel()
	f := Fig5(Quick)
	v1, _ := f.Get("TTG/PaRSEC", 1)
	v16, ok := f.Get("TTG/PaRSEC", 16)
	if !ok || v16 < 8*v1 {
		t.Fatalf("weak scaling 1→16 nodes: %.3g → %.3g (want ≥ 8x)", v1, v16)
	}
}

func TestFig6PeakGrowsWithProblemSize(t *testing.T) {
	t.Parallel()
	f := Fig6(Quick)
	small, _ := f.Get("TTG/PaRSEC", 8192)
	large, ok := f.Get("TTG/PaRSEC", 24576)
	if !ok || large <= small {
		t.Fatalf("problem scaling: %.3g at 8k, %.3g at 24k", small, large)
	}
}

func TestFig8TTGOutperformsForkJoin(t *testing.T) {
	t.Parallel()
	f := Fig8(Quick)
	x := maxX(f)
	ttgV, ok1 := f.Get("TTG/PaRSEC b=128", x)
	mpiV, ok2 := f.Get("MPI+OpenMP b=128", x)
	madV, ok3 := f.Get("TTG/MADNESS b=256", x)
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("missing series")
	}
	if ttgV <= mpiV {
		t.Fatalf("TTG/PaRSEC (%.3g) not above MPI+OpenMP (%.3g)", ttgV, mpiV)
	}
	if madV >= ttgV {
		t.Fatalf("TTG/MADNESS (%.3g) should be limited vs TTG/PaRSEC (%.3g)", madV, ttgV)
	}
}

func TestFig9SeawulfShape(t *testing.T) {
	t.Parallel()
	f := Fig9(Quick)
	x := maxX(f)
	ttgV, ok1 := f.Get("TTG/PaRSEC b=128", x)
	mpiV, ok2 := f.Get("MPI+OpenMP b=128", x)
	if !ok1 || !ok2 {
		t.Fatal("missing series")
	}
	if ttgV <= mpiV {
		t.Fatalf("TTG/PaRSEC (%.3g) not above MPI+OpenMP (%.3g) on Seawulf model", ttgV, mpiV)
	}
}

func TestFig12BackendsOrdered(t *testing.T) {
	t.Parallel()
	f := Fig12(Quick)
	for _, x := range []float64{4, 16, 64} {
		pv, ok1 := f.Get("TTG/PaRSEC", x)
		mv, ok2 := f.Get("TTG/MADNESS", x)
		dv, ok3 := f.Get("DBCSR (2.5D)", x)
		if !ok1 || !ok2 || !ok3 {
			t.Fatalf("missing series at %g", x)
		}
		if pv < mv {
			t.Errorf("at %g nodes TTG/PaRSEC (%.3g) below TTG/MADNESS (%.3g)", x, pv, mv)
		}
		if dv <= 0 || pv <= 0 {
			t.Errorf("non-positive throughput at %g nodes", x)
		}
	}
}

func TestFig13MRABackendOrdering(t *testing.T) {
	t.Parallel()
	f := Fig13a(Quick)
	x := maxX(f)
	pv, ok1 := f.Get("TTG/PaRSEC", x)
	mv, ok2 := f.Get("TTG/MADNESS", x)
	nv, ok3 := f.Get("Native MADNESS", x)
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("missing series")
	}
	if pv <= mv {
		t.Errorf("TTG/PaRSEC (%.4g) not above TTG/MADNESS (%.4g)", pv, mv)
	}
	if mv <= nv {
		t.Errorf("TTG/MADNESS (%.4g) not above native MADNESS (%.4g)", mv, nv)
	}
}

func TestFigureRendering(t *testing.T) {
	f := Figure{
		ID: "T", Title: "test", XLabel: "x", YLabel: "y",
		Points: []Point{
			{Series: "a", X: 1, Value: 10},
			{Series: "b", X: 1, Value: 20},
			{Series: "a", X: 2, Value: 30},
		},
	}
	r := f.Render()
	if !strings.Contains(r, "T — test") || !strings.Contains(r, "a") {
		t.Fatalf("render missing content:\n%s", r)
	}
	csv := f.CSV()
	if !strings.HasPrefix(csv, "series,x,value,time_s\n") || len(strings.Split(strings.TrimSpace(csv), "\n")) != 4 {
		t.Fatalf("csv wrong:\n%s", csv)
	}
	if s, v := f.Best(1); s != "b" || v != 20 {
		t.Fatalf("Best = %s, %v", s, v)
	}
	if _, ok := f.Get("a", 3); ok {
		t.Fatal("Get found a missing point")
	}
}

func TestTableIReportsAllConfigs(t *testing.T) {
	s := TableI()
	for _, want := range []string{"Hawk", "Seawulf", "PaRSEC", "MADNESS", "DPLASMA", "Chameleon", "Dense kernels"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I missing %q:\n%s", want, s)
		}
	}
}

func TestFig12TTG25DValidatesPrediction(t *testing.T) {
	t.Parallel()
	// §III-D's closing expectation: the 2.5D conversion lets TTG at least
	// match DBCSR's strong scaling.
	f := Fig12(Quick)
	x := maxX(f)
	ext, ok1 := f.Get("TTG 2.5D (ext)", x)
	dbcsr, ok2 := f.Get("DBCSR (2.5D)", x)
	if !ok1 || !ok2 {
		t.Fatal("missing series")
	}
	if ext < dbcsr {
		t.Fatalf("TTG 2.5D (%.3g) below DBCSR (%.3g) at %g nodes", ext, dbcsr, x)
	}
}

// TestAblationPriorityInvariant is the asserted extension of
// BenchmarkAblationPriority: at a rank/worker count where workers are
// contended (8 ranks x 16 workers, 64x64 tiles), Cholesky's critical-path
// priority map must measurably shorten the simulated makespan vs
// priorities-off. Virtual time is deterministic, so the floor is a real
// regression tripwire for both the priority map and the scheduler's
// priority handling, not a flaky timing test. (Observed speedup ~1.066;
// asserted floor leaves headroom for cost-model tweaks.)
func TestAblationPriorityInvariant(t *testing.T) {
	t.Parallel()
	grid := tile.Grid{N: 16384, NB: 256}
	machine := cluster.Hawk()
	run := func(prio bool) float64 {
		rt := sim.New(sim.Config{Ranks: 8, WorkersPerRank: 16, Machine: machine,
			Flavor: cluster.ParsecFlavor(), Cost: cholesky.CostModel(grid, machine)})
		rt.Run(graphMain(func(g *ttg.Graph) func() {
			return cholesky.Build(g, cholesky.Options{Grid: grid, Phantom: true, Priorities: prio}).Seed
		}))
		return rt.Now()
	}
	on, off := run(true), run(false)
	speedup := off / on
	if speedup < 1.02 {
		t.Fatalf("priority map no longer shortens the critical path: makespan on=%.4fs off=%.4fs (speedup %.4f, want >= 1.02)",
			on, off, speedup)
	}
	t.Logf("priority-map speedup at 8x16 workers: %.4f (on=%.4fs off=%.4fs)", speedup, on, off)
}
