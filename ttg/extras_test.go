package ttg_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps/cholesky"
	"repro/internal/backend/sim"
	"repro/internal/cluster"
	"repro/internal/tile"
	"repro/ttg"
)

// TestStatsExposed checks per-rank counters reach the public API.
func TestStatsExposed(t *testing.T) {
	var tasks int64
	var mu sync.Mutex
	ttg.Run(ttg.Config{Ranks: 2, WorkersPerRank: 1}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		in := ttg.NewEdge[ttg.Int1, float64]("in")
		ttg.MakeTT1(g, "w", ttg.Input(in), nil, func(x *ttg.Ctx[ttg.Int1], v float64) {},
			ttg.Options[ttg.Int1]{Keymap: func(k ttg.Int1) int { return k[0] % 2 }})
		g.MakeExecutable()
		if pc.Rank() == 0 {
			for i := 0; i < 10; i++ {
				ttg.Seed(g, in, ttg.Int1{i}, 1.0)
			}
		}
		g.Fence()
		mu.Lock()
		tasks += pc.Stats().TasksExecuted
		mu.Unlock()
		if pc.Workers() != 1 {
			t.Errorf("Workers = %d", pc.Workers())
		}
	})
	if tasks != 10 {
		t.Fatalf("stats report %d tasks, want 10", tasks)
	}
}

// TestNamesAndBackendString covers small accessors.
func TestNamesAndBackendString(t *testing.T) {
	e := ttg.NewEdge[ttg.Int1, int]("my-edge")
	if e.Name() != "my-edge" {
		t.Fatalf("edge name = %q", e.Name())
	}
	if ttg.PaRSEC.String() != "parsec" || ttg.MADNESS.String() != "madness" {
		t.Fatalf("backend strings wrong")
	}
}

// TestParseBackend: every backend's String parses back to it, and an
// unknown name is an error listing the valid ones (not a silent PaRSEC).
func TestParseBackend(t *testing.T) {
	for _, b := range []ttg.Backend{ttg.PaRSEC, ttg.MADNESS} {
		if got, err := ttg.ParseBackend(b.String()); err != nil || got != b {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", b.String(), got, err, b)
		}
	}
	_, err := ttg.ParseBackend("madnes")
	if err == nil || !strings.Contains(err.Error(), "parsec") || !strings.Contains(err.Error(), "madness") {
		t.Errorf("ParseBackend(\"madnes\") error = %v, want one naming parsec and madness", err)
	}
}

// TestUnknownBackendPanics: an out-of-range Backend neither runs nor
// prints itself as PaRSEC; Run panics at construction naming the value.
func TestUnknownBackendPanics(t *testing.T) {
	for _, b := range []ttg.Backend{-1, 2, 7} {
		if s := b.String(); s == "parsec" || s == "madness" {
			t.Errorf("Backend(%d).String() = %q", int(b), s)
		}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), b.String()) {
					t.Errorf("Run with Backend(%d): panic = %v, want one naming %q", int(b), r, b.String())
				}
			}()
			ttg.Run(ttg.Config{Backend: b}, func(*ttg.Process) { t.Errorf("main ran under Backend(%d)", int(b)) })
		}()
	}
}

// TestVirtualTimeDeterministicForApp: the same Cholesky configuration
// yields bit-identical virtual makespans across runs — the property that
// makes figure regeneration reproducible.
func TestVirtualTimeDeterministicForApp(t *testing.T) {
	run := func() float64 {
		grid := tile.Grid{N: 8192, NB: 512}
		machine := cluster.Hawk()
		rt := sim.New(sim.Config{
			Ranks: 4, Machine: machine, Flavor: cluster.ParsecFlavor(),
			Cost: cholesky.CostModel(grid, machine),
		})
		rt.Run(func(p *sim.Proc) {
			g := ttg.NewGraphOn(p)
			app := cholesky.Build(g, cholesky.Options{Grid: grid, Phantom: true, Priorities: true})
			g.MakeExecutable()
			app.Seed()
			g.Fence()
		})
		return rt.Now()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("virtual makespan not deterministic: %v vs %v", a, b)
	}
}

// TestSimProfileExposed: the per-kernel profile is populated.
func TestSimProfileExposed(t *testing.T) {
	grid := tile.Grid{N: 4096, NB: 512}
	machine := cluster.Hawk()
	rt := sim.New(sim.Config{
		Ranks: 2, Machine: machine, Flavor: cluster.ParsecFlavor(),
		Cost: cholesky.CostModel(grid, machine),
	})
	rt.Run(func(p *sim.Proc) {
		g := ttg.NewGraphOn(p)
		app := cholesky.Build(g, cholesky.Options{Grid: grid, Phantom: true})
		g.MakeExecutable()
		app.Seed()
		g.Fence()
	})
	prof := rt.Profile()
	nt := grid.NT()
	if st := prof["POTRF"]; st.Tasks != int64(nt) || st.Busy <= 0 {
		t.Fatalf("POTRF profile = %+v, want %d tasks", st, nt)
	}
	if st := prof["GEMM"]; st.Tasks != int64(nt*(nt-1)*(nt-2)/6) {
		t.Fatalf("GEMM profile = %+v", st)
	}
}

// TestInvokeTyped bootstraps a task directly through the typed wrappers.
func TestInvokeTyped(t *testing.T) {
	var got float64
	ttg.Run(ttg.Config{Ranks: 2, WorkersPerRank: 1}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		a := ttg.NewEdge[ttg.Int1, float64]("a")
		b := ttg.NewEdge[ttg.Int1, float64]("b")
		tt := ttg.MakeTT2(g, "join", ttg.Input(a), ttg.Input(b), nil,
			func(x *ttg.Ctx[ttg.Int1], va, vb float64) { got = va * vb },
			ttg.Options[ttg.Int1]{Keymap: func(ttg.Int1) int { return 1 }},
		)
		g.MakeExecutable()
		if pc.Rank() == 1 { // Invoke must run on the owner rank
			ttg.Invoke2(tt, ttg.Int1{0}, 6.0, 7.0)
		}
		g.Fence()
	})
	if got != 42 {
		t.Fatalf("invoked join = %v", got)
	}
}

// TestGraphDotExposed smoke-checks the typed API's DOT export.
func TestGraphDotExposed(t *testing.T) {
	ttg.Run(ttg.Config{Ranks: 1}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		in := ttg.NewEdge[ttg.Int1, float64]("in")
		ttg.MakeTT1(g, "only", ttg.Input(in), nil, func(*ttg.Ctx[ttg.Int1], float64) {})
		g.MakeExecutable()
		if dot := g.Dot(); !strings.Contains(dot, "only") {
			t.Errorf("dot missing node: %s", dot)
		}
		g.Fence()
	})
}
