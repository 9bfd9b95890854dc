// One send plan, two executors: the engine (internal/backend) executes
// core.PlanSend/PlanBcast and the simulator (internal/backend/sim) charges
// them, so on the same graph both must count the same protocol decisions
// and keep balanced byte ledgers. Two properties they do not share:
// SplitMD — the sim's Hawk/Seawulf flavors model one-sided fetches, the
// engine's fabrics have none, so what the sim charges as a rendezvous the
// engine pushes as a gather message — and TreeBroadcast, which the sim's
// PaRSEC flavor models and the engine, sending each destination its own
// push, leaves off.
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/apps/cholesky"
	"repro/internal/apps/fw"
	"repro/internal/backend"
	"repro/internal/backend/sim"
	"repro/internal/cluster"
	"repro/internal/tile"
	"repro/internal/trace"
	"repro/ttg"
)

// TestSendPlanAgreement runs 8x8-tile Cholesky and FW-APSP graphs with
// phantom tiles on the simulator and real tiles on the engine, under both
// presets, at tile sizes straddling the gather floor (nb 11|12) and the
// sim's splitmd threshold (nb 22|23), on 2 and 4 ranks. The sim runs with
// TreeBroadcast off, as the engine sends, so both send point to point: the message and
// copy counts must be equal, the engine's gather count must equal the
// sim's gather plus splitmd counts with nothing sent by rendezvous, both
// ledgers must balance after the fence, and the sim's byte total must sit
// within 3% of the engine's. What remains of the gap is the tile codec's
// WireSize allowance (16 B declared for a shape that encodes in 3: 13 B
// per message, 2.4% of a 535 B nb=8 message), the 64 B splitmd metadata
// allowance (the gather header the engine sends in its place is ≈ 19 B)
// and, the other way, the gather header's framing. On 4 ranks the sim also
// runs its own flavor, the PaRSEC one with its broadcast tree, and that
// ledger must balance too.
func TestSendPlanAgreement(t *testing.T) {
	type app struct {
		name  string
		build func(g *ttg.Graph, grid tile.Grid, phantom bool) func()
	}
	potrf := app{"potrf", func(g *ttg.Graph, grid tile.Grid, phantom bool) func() {
		return cholesky.Build(g, cholesky.Options{Grid: grid, Phantom: phantom, Priorities: true}).Seed
	}}
	fwapsp := app{"fw", func(g *ttg.Graph, grid tile.Grid, phantom bool) func() {
		return fw.Build(g, fw.Options{Grid: grid, Phantom: phantom, Priorities: true}).Seed
	}}
	presets := []struct {
		engine backend.Options
		flavor cluster.Flavor
	}{
		{backend.PaRSEC(), cluster.ParsecFlavor()},
		{backend.MADNESS(), cluster.MadnessFlavor()},
	}
	for _, tc := range []struct {
		app   app
		ranks int
		nbs   []int
	}{
		{potrf, 2, []int{8, 11, 12, 16, 22, 23, 64}},
		{potrf, 4, []int{8, 11, 12, 16, 22, 23, 64}},
		{fwapsp, 2, []int{11, 32}},
		{fwapsp, 4, []int{11, 32}},
	} {
		for _, nb := range tc.nbs {
			for _, pre := range presets {
				// The chunk=0 suffix is what the runs were named when the
				// engine had a broadcast chunk size; it keeps their ids.
				name := fmt.Sprintf("%s/%s/ranks=%d/nb=%d/chunk=0", tc.app.name, pre.engine.Name, tc.ranks, nb)
				t.Run(name, func(t *testing.T) {
					grid := tile.Grid{N: 8 * nb, NB: nb}
					var mu sync.Mutex
					simulate := func(fl cluster.Flavor) (model trace.Snapshot) {
						sim.New(sim.Config{Ranks: tc.ranks, WorkersPerRank: 1, Machine: cluster.Hawk(), Flavor: fl}).Run(func(p *sim.Proc) {
							g := ttg.NewGraphOn(p)
							seed := tc.app.build(g, grid, true)
							g.MakeExecutable()
							seed()
							g.Fence()
							mu.Lock()
							model = model.Add(p.Tracer().Snapshot())
							mu.Unlock()
						})
						return model
					}
					fl := pre.flavor
					fl.TreeBroadcast = false // the engine has no tree
					model := simulate(fl)

					o := pre.engine
					o.WorkersPerRank = 1
					var engine trace.Snapshot
					backend.New(tc.ranks, o).Run(func(p *backend.Proc) {
						g := ttg.NewGraphOn(p)
						seed := tc.app.build(g, grid, false)
						g.MakeExecutable()
						seed()
						g.Fence()
						mu.Lock()
						engine = engine.Add(p.Stats())
						mu.Unlock()
					})

					balanced := func(who string, s trace.Snapshot) {
						if s.MsgsSent != s.MsgsReceived || s.BytesSent != s.BytesReceived {
							t.Errorf("%s ledger unbalanced: msgs %d sent / %d received, bytes %d sent / %d received",
								who, s.MsgsSent, s.MsgsReceived, s.BytesSent, s.BytesReceived)
						}
					}
					balanced("sim", model)
					balanced("engine", engine)
					if engine.SplitMDTransfers != 0 || model.SplitMDTransfers+model.GatherSends != engine.GatherSends ||
						model.CopySends != engine.CopySends || model.MsgsSent != engine.MsgsSent {
						t.Errorf("protocol counters: sim msgs=%d split=%d gather=%d copy=%d, engine msgs=%d split=%d gather=%d copy=%d; want engine split=0, gather = sim split+gather, msgs and copy equal",
							model.MsgsSent, model.SplitMDTransfers, model.GatherSends, model.CopySends,
							engine.MsgsSent, engine.SplitMDTransfers, engine.GatherSends, engine.CopySends)
					}
					if tc.ranks == 4 {
						balanced("sim under its own flavor", simulate(pre.flavor))
					}
					gap := float64(model.BytesSent-engine.BytesSent) / float64(engine.BytesSent)
					if gap < -0.03 || gap > 0.03 {
						t.Errorf("sim BytesSent %d vs engine %d: gap %.2f%% outside ±3%%", model.BytesSent, engine.BytesSent, 100*gap)
					}
					t.Logf("msgs=%d split=%d gather=%d copy=%d (sim split=%d gather=%d); bytes sim %d engine %d (gap %+.2f%%)",
						engine.MsgsSent, engine.SplitMDTransfers, engine.GatherSends, engine.CopySends,
						model.SplitMDTransfers, model.GatherSends, model.BytesSent, engine.BytesSent, 100*gap)
				})
			}
		}
	}
}
