package bspmm

import (
	"math"
	"sync"
	"testing"

	"repro/internal/backend/sim"
	"repro/internal/cluster"
	"repro/internal/sparse"
	"repro/internal/tile"
	"repro/ttg"
)

func smallMatrix() *sparse.Matrix {
	spec := sparse.DefaultSpec(40)
	spec.MaxTile = 48
	spec.FuncsMin, spec.FuncsMax = 8, 20
	spec.Box = 120
	return sparse.Generate(spec)
}

// denseProduct computes C = A·A by materializing all tiles densely.
func denseProduct(m *sparse.Matrix) map[ttg.Int2]*tile.Tile {
	nt := m.NT()
	out := map[ttg.Int2]*tile.Tile{}
	for i := 0; i < nt; i++ {
		for _, k := range m.Row(i) {
			a := m.Materialize(i, k, false)
			for _, j := range m.Row(k) {
				b := m.Materialize(k, j, false)
				c, ok := out[ttg.Int2{i, j}]
				if !ok {
					c = tile.New(m.Dim(i), m.Dim(j))
					out[ttg.Int2{i, j}] = c
				}
				for r := 0; r < c.Rows; r++ {
					for p := 0; p < a.Cols; p++ {
						av := a.At(r, p)
						for cc := 0; cc < c.Cols; cc++ {
							c.Add(r, cc, av*b.At(p, cc))
						}
					}
				}
			}
		}
	}
	return out
}

func runReal(t *testing.T, be ttg.Backend, variant Variant, ranks int, m *sparse.Matrix) map[ttg.Int2]*tile.Tile {
	t.Helper()
	var mu sync.Mutex
	results := map[ttg.Int2]*tile.Tile{}
	ttg.Run(ttg.Config{Ranks: ranks, WorkersPerRank: 2, Backend: be}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		app := Build(g, Options{
			A:       m,
			Variant: variant,
			OnResult: func(i, j int, tl *tile.Tile) {
				mu.Lock()
				results[ttg.Int2{i, j}] = tl
				mu.Unlock()
			},
		})
		g.MakeExecutable()
		app.Seed()
		g.Fence()
	})
	return results
}

func expectProduct(t *testing.T, m *sparse.Matrix, results map[ttg.Int2]*tile.Tile) {
	t.Helper()
	want := denseProduct(m)
	if len(results) != len(want) {
		t.Fatalf("got %d product tiles, want %d", len(results), len(want))
	}
	for key, w := range want {
		got := results[key]
		if got == nil {
			t.Fatalf("missing product tile %v", key)
		}
		for idx := range w.Data {
			if math.Abs(got.Data[idx]-w.Data[idx]) > 1e-9*math.Max(1, math.Abs(w.Data[idx])) {
				t.Fatalf("tile %v element %d: got %v want %v", key, idx, got.Data[idx], w.Data[idx])
			}
		}
	}
}

func TestBSPMMTTGParsec(t *testing.T) {
	m := smallMatrix()
	expectProduct(t, m, runReal(t, ttg.PaRSEC, TTGVariant, 4, m))
}

func TestBSPMMTTGMadness(t *testing.T) {
	m := smallMatrix()
	expectProduct(t, m, runReal(t, ttg.MADNESS, TTGVariant, 2, m))
}

// TestBSPMMMadnessRecycledClones runs TestBSPMMTTGMadness' configuration
// three times in one process: the per-consumer clones of one run go back to
// the tile pool when their MultiplyAdd returns, so the later runs compute
// on recycled buffers. A clone released while anything still read it, or
// handed out twice, would change the product; every run must match the
// PaRSEC preset (which shares instead of cloning) bit for bit.
func TestBSPMMMadnessRecycledClones(t *testing.T) {
	m := smallMatrix()
	want := runReal(t, ttg.PaRSEC, TTGVariant, 2, m)
	expectProduct(t, m, want)
	for run := 1; run <= 3; run++ {
		got := runReal(t, ttg.MADNESS, TTGVariant, 2, m)
		if len(got) != len(want) {
			t.Fatalf("run %d: %d product tiles, PaRSEC preset has %d", run, len(got), len(want))
		}
		for key, w := range want {
			g := got[key]
			if g == nil || len(g.Data) != len(w.Data) {
				t.Fatalf("run %d: tile %v missing or misshapen", run, key)
			}
			for i := range w.Data {
				if math.Float64bits(g.Data[i]) != math.Float64bits(w.Data[i]) {
					t.Fatalf("run %d: tile %v element %d is %v, PaRSEC preset has %v",
						run, key, i, g.Data[i], w.Data[i])
				}
			}
		}
	}
}

func TestBSPMMTTGSingleRank(t *testing.T) {
	m := smallMatrix()
	expectProduct(t, m, runReal(t, ttg.PaRSEC, TTGVariant, 1, m))
}

func TestBSPMMDBCSRModel(t *testing.T) {
	m := smallMatrix()
	expectProduct(t, m, runReal(t, ttg.PaRSEC, DBCSRModel, 4, m))
}

func TestBSPMMDBCSRModelMultiLayer(t *testing.T) {
	m := smallMatrix()
	var mu sync.Mutex
	results := map[ttg.Int2]*tile.Tile{}
	ttg.Run(ttg.Config{Ranks: 4, WorkersPerRank: 2}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		app := Build(g, Options{
			A: m, Variant: DBCSRModel, Layers: 2,
			OnResult: func(i, j int, tl *tile.Tile) {
				mu.Lock()
				results[ttg.Int2{i, j}] = tl
				mu.Unlock()
			},
		})
		g.MakeExecutable()
		app.Seed()
		g.Fence()
	})
	expectProduct(t, m, results)
}

func TestBSPMMTinyWindows(t *testing.T) {
	// Aggressive throttling must not deadlock.
	m := smallMatrix()
	var mu sync.Mutex
	results := map[ttg.Int2]*tile.Tile{}
	ttg.Run(ttg.Config{Ranks: 3, WorkersPerRank: 1}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		app := Build(g, Options{
			A: m, ReadWindow: 1, BatchSize: 1, CoordWindow: 1,
			OnResult: func(i, j int, tl *tile.Tile) {
				mu.Lock()
				results[ttg.Int2{i, j}] = tl
				mu.Unlock()
			},
		})
		g.MakeExecutable()
		app.Seed()
		g.Fence()
	})
	expectProduct(t, m, results)
}

// TestBSPMMVirtualTime checks the phantom graph runs under the DES and
// both variants complete with plausible times.
func TestBSPMMVirtualTime(t *testing.T) {
	spec := sparse.DefaultSpec(150)
	m := sparse.Generate(spec)
	machine := cluster.Hawk()
	run := func(variant Variant, ranks int) float64 {
		rt := sim.New(sim.Config{
			Ranks: ranks, Machine: machine,
			Flavor: cluster.ParsecFlavor(),
			Cost:   CostModel(m, machine),
		})
		rt.Run(func(p *sim.Proc) {
			g := ttg.NewGraphOn(p)
			app := Build(g, Options{A: m, Phantom: true, Variant: variant})
			g.MakeExecutable()
			app.Seed()
			g.Fence()
		})
		return rt.LastDrainTime()
	}
	t2 := run(TTGVariant, 2)
	t8 := run(TTGVariant, 8)
	if t8 >= t2 {
		t.Fatalf("TTG bspmm: 8 nodes (%v) not faster than 2 nodes (%v)", t8, t2)
	}
	d8 := run(DBCSRModel, 8)
	if d8 <= 0 {
		t.Fatalf("DBCSR model produced zero virtual time")
	}
}

// TestBackendIndependenceMatrix pins the §II-D claim for the SUMMA graphs.
func TestBackendIndependenceMatrix(t *testing.T) {
	m := smallMatrix()
	for _, be := range []ttg.Backend{ttg.PaRSEC, ttg.MADNESS} {
		for _, variant := range []Variant{TTGVariant, DBCSRModel} {
			t.Run(be.String()+"/"+variant.String(), func(t *testing.T) {
				expectProduct(t, m, runReal(t, be, variant, 2, m))
			})
		}
	}
}

// TestBSPMMTTG25D verifies the asynchronous 2.5D variant (the conversion
// the paper's §III-D anticipates) computes the exact product.
func TestBSPMMTTG25D(t *testing.T) {
	m := smallMatrix()
	var mu sync.Mutex
	results := map[ttg.Int2]*tile.Tile{}
	ttg.Run(ttg.Config{Ranks: 4, WorkersPerRank: 2}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		app := Build(g, Options{
			A: m, Variant: TTG25D, Layers: 2,
			OnResult: func(i, j int, tl *tile.Tile) {
				mu.Lock()
				results[ttg.Int2{i, j}] = tl
				mu.Unlock()
			},
		})
		g.MakeExecutable()
		app.Seed()
		g.Fence()
	})
	expectProduct(t, m, results)
}
