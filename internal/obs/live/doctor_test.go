// External test package: these tests drive the doctor through the public
// ttg API and the sim backend, both of which themselves import live.
package live_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/apps/cholesky"
	"repro/internal/apps/fw"
	"repro/internal/backend/sim"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs/live"
	"repro/internal/serde"
	"repro/internal/tile"
	"repro/ttg"
)

// findBlame returns the blame edge for the given edge name, or nil.
func findBlame(rep *live.StallReport, edge string) *live.BlameEdge {
	for i := range rep.Blames {
		if rep.Blames[i].Edge == edge {
			return &rep.Blames[i]
		}
	}
	return nil
}

// TestDoctorMiswiredCholeskyLocal runs the deliberately miswired cholesky
// fixture (TRSM never feeds trsm_syrk) on both real backends. The wedged
// graph still quiesces — partially filled shells hold no activation, so
// the fence returns — and the post-run diagnosis must name the missing
// edge and blame the producer template.
func TestDoctorMiswiredCholeskyLocal(t *testing.T) {
	for _, be := range []ttg.Backend{ttg.PaRSEC, ttg.MADNESS} {
		t.Run(be.String(), func(t *testing.T) {
			var doc *live.Doctor
			hook := func(targets []live.Target, _ []live.Collector) {
				doc = live.NewDoctor(live.Config{Quiet: time.Hour}, targets...)
			}
			ttg.RunLive(ttg.Config{Ranks: 2, WorkersPerRank: 2, Backend: be}, hook, func(pc *ttg.Process) {
				g := pc.NewGraph()
				app := cholesky.Build(g, cholesky.Options{
					Grid: tile.Grid{N: 256, NB: 64}, Miswire: true,
				})
				g.MakeExecutable()
				app.Seed()
				g.Fence()
			})
			rep := doc.Diagnose()
			if rep == nil {
				t.Fatal("miswired cholesky produced no diagnosis")
			}
			if rep.Pending == 0 {
				t.Fatalf("diagnosis has no pending shells: %+v", rep)
			}
			blame := findBlame(rep, "trsm_syrk")
			if blame == nil {
				t.Fatalf("no blame edge for trsm_syrk:\n%s", rep.String())
			}
			if blame.Consumer != "SYRK" {
				t.Fatalf("trsm_syrk blame consumer = %q, want SYRK", blame.Consumer)
			}
			var blamed bool
			for _, p := range blame.Producers {
				if p.TT == "TRSM" {
					blamed = true
				}
			}
			if !blamed {
				t.Fatalf("trsm_syrk blame should name producer TRSM: %+v", blame.Producers)
			}
			if !strings.Contains(rep.String(), `edge "trsm_syrk"`) {
				t.Fatalf("rendered report omits the blame edge:\n%s", rep.String())
			}
		})
	}
}

// TestDoctorMiswiredGraphSim wedges a join on the virtual-time backend:
// the SRC template claims to feed both of JOIN's inputs but only ever
// sends on one, so every JOIN shell pends on b_edge. The sim fence
// returns (virtual time simply runs dry) and Diagnose classifies the
// shells with producer blame.
func TestDoctorMiswiredGraphSim(t *testing.T) {
	m := cluster.Machine{
		Name: "ideal", Workers: 2,
		KernelRate: 1e9, SmallOpRate: 1e9,
		Latency: 1e-6, Bandwidth: 10e9, CopyBandwidth: 10e9,
	}
	rt := sim.New(sim.Config{Ranks: 2, WorkersPerRank: 2, Machine: m, Flavor: cluster.Flavor{Name: "bare"}})
	const n = 8
	rt.Run(func(p *sim.Proc) {
		g := p.NewGraph()
		in := core.NewEdge("in")
		aEdge := core.NewEdge("a_edge")
		bEdge := core.NewEdge("b_edge")
		g.AddTT(core.TTSpec{
			Name:    "SRC",
			Inputs:  []core.InputSpec{{Edge: in}},
			Outputs: []core.OutputSpec{{Edge: aEdge}, {Edge: bEdge}},
			Keymap:  func(k any) int { return k.(serde.Int1)[0] % p.Size() },
			Body: func(ctx *core.TaskContext) {
				ctx.SendEdge(aEdge, ctx.Key(), 1.0, core.SendCopy) // a_edge only; b_edge never fires
			},
		})
		g.AddTT(core.TTSpec{
			Name:   "JOIN",
			Inputs: []core.InputSpec{{Edge: aEdge}, {Edge: bEdge}},
			Keymap: func(k any) int { return k.(serde.Int1)[0] % p.Size() },
			Body:   func(ctx *core.TaskContext) {},
		})
		g.Seal()
		p.Bind(g)
		if p.Rank() == 0 {
			for k := 0; k < n; k++ {
				g.Seed(in, serde.Int1{k}, 1.0)
			}
		}
		p.Fence()
	})

	doc := live.NewDoctor(live.Config{Quiet: time.Hour}, rt.LiveTargets()...)
	rep := doc.Diagnose()
	if rep == nil {
		t.Fatal("wedged sim graph produced no diagnosis")
	}
	if rep.Pending != n {
		t.Fatalf("pending = %d, want %d", rep.Pending, n)
	}
	be := findBlame(rep, "b_edge")
	if be == nil {
		t.Fatalf("no blame edge for b_edge:\n%s", rep.String())
	}
	if be.Consumer != "JOIN" || be.Term != 1 || be.Count != n {
		t.Fatalf("b_edge blame = %+v, want JOIN input 1 with %d shells", be, n)
	}
	if len(be.Producers) != 1 || be.Producers[0].TT != "SRC" {
		t.Fatalf("b_edge blame should name producer SRC: %+v", be.Producers)
	}
}

// TestDoctorWatchdogFires exercises the live state machine, not just the
// synchronous probe: a rank seeds only one input of a join and then sits
// on the result, so the cluster goes quiet with shells pending and the
// watchdog must fire within the quiet period. Completing the inputs
// afterwards lets the run finish normally.
func TestDoctorWatchdogFires(t *testing.T) {
	stalled := make(chan *live.StallReport, 1)
	var doc *live.Doctor
	hook := func(targets []live.Target, _ []live.Collector) {
		doc = live.NewDoctor(live.Config{
			Quiet: 100 * time.Millisecond,
			OnStall: func(rep *live.StallReport) {
				select {
				case stalled <- rep:
				default:
				}
			},
		}, targets...)
		doc.Start()
	}
	var rep *live.StallReport
	ttg.RunLive(ttg.Config{Ranks: 1, WorkersPerRank: 2, Backend: ttg.PaRSEC}, hook, func(pc *ttg.Process) {
		g := pc.NewGraph()
		aEdge := ttg.NewEdge[ttg.Int1, float64]("a_edge")
		bEdge := ttg.NewEdge[ttg.Int1, float64]("b_edge")
		ttg.MakeTT2(g, "JOIN",
			ttg.Input(aEdge), ttg.Input(bEdge), nil,
			func(x *ttg.Ctx[ttg.Int1], a, b float64) {},
		)
		g.MakeExecutable()
		ttg.Seed(g, aEdge, ttg.Int1{1}, 1.0)
		select {
		case rep = <-stalled:
		case <-time.After(30 * time.Second):
			t.Error("watchdog never fired on a half-seeded join")
		}
		ttg.Seed(g, bEdge, ttg.Int1{1}, 2.0) // unwedge and finish cleanly
		g.Fence()
	})
	doc.Stop()
	if rep == nil {
		t.Fatal("no stall report")
	}
	if rep.QuietFor < 100*time.Millisecond {
		t.Fatalf("report fired before the quiet period: %v", rep.QuietFor)
	}
	be := findBlame(rep, "b_edge")
	if be == nil || be.Consumer != "JOIN" || be.Term != 1 {
		t.Fatalf("watchdog blame: %+v\n%s", be, rep.String())
	}
	if doc.Reports() < 1 || doc.LastReport() == nil {
		t.Fatalf("Reports() = %d, LastReport() = %v", doc.Reports(), doc.LastReport())
	}
	// The graph completed after unwedging, so a fresh diagnosis is clean.
	if post := doc.Diagnose(); post != nil {
		t.Fatalf("post-completion diagnosis should be nil:\n%s", post.String())
	}
}

// TestDoctorNoFalseStalls attaches an aggressive watchdog (20ms quiet) to
// clean potrf and fwapsp runs on both backends: a healthy graph must
// produce zero stall reports and a nil post-run diagnosis.
func TestDoctorNoFalseStalls(t *testing.T) {
	grid := tile.Grid{N: 256, NB: 64}
	apps := map[string]func(pc *ttg.Process){
		"potrf": func(pc *ttg.Process) {
			g := pc.NewGraph()
			app := cholesky.Build(g, cholesky.Options{Grid: grid, Priorities: true})
			g.MakeExecutable()
			app.Seed()
			g.Fence()
		},
		"fwapsp": func(pc *ttg.Process) {
			g := pc.NewGraph()
			app := fw.Build(g, fw.Options{Grid: grid, Priorities: true})
			g.MakeExecutable()
			app.Seed()
			g.Fence()
		},
	}
	for name, main := range apps {
		for _, be := range []ttg.Backend{ttg.PaRSEC, ttg.MADNESS} {
			t.Run(name+"/"+be.String(), func(t *testing.T) {
				var doc *live.Doctor
				hook := func(targets []live.Target, _ []live.Collector) {
					doc = live.NewDoctor(live.Config{Quiet: 20 * time.Millisecond}, targets...)
					doc.Start()
				}
				ttg.RunLive(ttg.Config{Ranks: 2, WorkersPerRank: 2, Backend: be}, hook, main)
				doc.Stop()
				if n := doc.Reports(); n != 0 {
					t.Fatalf("clean %s run fired %d stall report(s):\n%s", name, n, doc.LastReport().String())
				}
				if rep := doc.Diagnose(); rep != nil {
					t.Fatalf("clean %s run left pending shells:\n%s", name, rep.String())
				}
			})
		}
	}
}
