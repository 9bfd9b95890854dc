package sim

import (
	"encoding/json"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/serde"
)

// TestTimelineFlows: a chain hopping between two ranks with the timeline
// enabled produces one causal flow arrow per cross-rank delivery, each a
// paired "s"/"f" record in the exported Chrome JSON, with the finish at
// or after the start in virtual time.
func TestTimelineFlows(t *testing.T) {
	const hops = 10
	rt := New(Config{
		Ranks: 2, WorkersPerRank: 1, Machine: idealMachine(),
		Flavor: cluster.Flavor{Name: "bare"},
	})
	tl := rt.EnableTimeline()
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
				if k[0] < hops {
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

	flows := tl.Flows()
	// Every hop alternates ranks, so each of the `hops` sends crosses.
	if len(flows) != hops {
		t.Fatalf("got %d flows, want %d", len(flows), hops)
	}
	ids := map[uint64]bool{}
	for _, f := range flows {
		if f.ID == 0 {
			t.Fatalf("flow with zero id: %+v", f)
		}
		if ids[f.ID] {
			t.Fatalf("duplicate flow id %d", f.ID)
		}
		ids[f.ID] = true
		if f.SrcPid == f.DstPid {
			t.Fatalf("flow should cross ranks: %+v", f)
		}
		if f.DstTS < f.SrcTS {
			t.Fatalf("flow arrives before it departs: %+v", f)
		}
	}

	var recs []struct {
		Cat string `json:"cat"`
		Ph  string `json:"ph"`
		ID  uint64 `json:"id"`
	}
	if err := json.Unmarshal([]byte(tl.ChromeJSON()), &recs); err != nil {
		t.Fatalf("timeline trace is not valid JSON: %v", err)
	}
	starts, finishes := map[uint64]int{}, map[uint64]int{}
	for _, r := range recs {
		if r.Cat != "flow" {
			continue
		}
		switch r.Ph {
		case "s":
			starts[r.ID]++
		case "f":
			finishes[r.ID]++
		}
	}
	if len(starts) != hops || len(finishes) != hops {
		t.Fatalf("trace has %d starts / %d finishes, want %d", len(starts), len(finishes), hops)
	}
	for id, n := range starts {
		if n != 1 || finishes[id] != 1 {
			t.Fatalf("flow id %d: %d starts, %d finishes", id, n, finishes[id])
		}
	}
}

// TestTimelineFlowTimingInvariance: enabling causal-span tracking must not
// perturb the simulated clock — the flow id travels outside the modeled
// wire size.
func TestTimelineFlowTimingInvariance(t *testing.T) {
	run := func(timeline bool) float64 {
		rt := New(Config{
			Ranks: 2, WorkersPerRank: 1, Machine: idealMachine(),
			Flavor: cluster.Flavor{Name: "bare"},
		})
		if timeline {
			rt.EnableTimeline()
		}
		rt.Run(func(p *Proc) {
			g, in := buildIndependent(p, 2)
			p.Bind(g)
			if p.Rank() == 0 {
				for k := 0; k < 32; k++ {
					g.Seed(in, serde.Int1{k}, 1.0)
				}
			}
			p.Fence()
		})
		return rt.LastDrainTime()
	}
	plain, traced := run(false), run(true)
	if plain != traced {
		t.Fatalf("causal spans changed virtual time: %v vs %v", plain, traced)
	}
}
