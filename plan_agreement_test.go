// One send plan, two executors: the engine (internal/backend) executes
// core.PlanSend/PlanBcast and the simulator (internal/backend/sim) charges
// them, so on the same graph both must count the same protocol decisions
// and keep balanced byte ledgers. The one property they do not share is
// SplitMD: the sim's Hawk/Seawulf flavors model one-sided fetches, the
// engine's fabrics have none, so what the sim charges as a rendezvous the
// engine pushes as a gather message.
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
	"repro/internal/core"
	"repro/internal/tile"
	"repro/internal/trace"
	"repro/ttg"
)

// TestSendPlanAgreement runs 8x8-tile Cholesky and FW-APSP graphs with
// phantom tiles on the simulator and real tiles on the engine, under both
// presets, at tile sizes straddling the gather floor (nb 11|12) and the
// sim's splitmd threshold (nb 22|23), on 2 and 4 ranks. The copy counters
// must be equal, the engine's gather count must equal the sim's gather
// plus splitmd counts with nothing sent by rendezvous, both ledgers must
// balance after the fence, and the sim's byte total must sit within 3% of
// the engine's. What remains of
// the gap is the tile codec's WireSize allowance (16 B declared for a shape
// that encodes in 3: 13 B per message, 2.4% of a 535 B nb=8 message), the
// 64 B splitmd metadata allowance (the gather header the engine sends in
// its place is ≈ 19 B) and, the other way, the gather header's framing
// and the broadcast preamble.
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
		chunk int // BcastChunk override
	}{
		{potrf, 2, []int{8, 11, 12, 16, 22, 23, 64}, 0},
		{potrf, 4, []int{8, 11, 12, 16, 22, 23, 64}, 0},
		{potrf, 4, []int{64}, 4096}, // 32 KiB tiles in pipelined chunks
		{fwapsp, 2, []int{11, 32}, 0},
		{fwapsp, 4, []int{11, 32}, 0},
	} {
		for _, nb := range tc.nbs {
			for _, pre := range presets {
				name := fmt.Sprintf("%s/%s/ranks=%d/nb=%d/chunk=%d", tc.app.name, pre.engine.Name, tc.ranks, nb, tc.chunk)
				t.Run(name, func(t *testing.T) {
					grid := tile.Grid{N: 8 * nb, NB: nb}
					caps := pre.engine.SendCaps
					caps.BcastChunk = tc.chunk

					fl := pre.flavor
					fl.BcastChunk = tc.chunk
					var model trace.Snapshot
					var mu sync.Mutex
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

					o := pre.engine
					o.SendCaps, o.WorkersPerRank = caps, 1
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

					for _, s := range []struct {
						who string
						trace.Snapshot
					}{{"sim", model}, {"engine", engine}} {
						if s.MsgsSent != s.MsgsReceived || s.BytesSent != s.BytesReceived {
							t.Errorf("%s ledger unbalanced: msgs %d sent / %d received, bytes %d sent / %d received",
								s.who, s.MsgsSent, s.MsgsReceived, s.BytesSent, s.BytesReceived)
						}
					}
					if engine.SplitMDTransfers != 0 || model.SplitMDTransfers+model.GatherSends != engine.GatherSends ||
						model.CopySends != engine.CopySends {
						t.Errorf("protocol counters: sim split=%d gather=%d copy=%d, engine split=%d gather=%d copy=%d; want engine split=0, gather = sim split+gather, copy equal",
							model.SplitMDTransfers, model.GatherSends, model.CopySends,
							engine.SplitMDTransfers, engine.GatherSends, engine.CopySends)
					}
					// What is left of MsgsSent are tree-broadcast packets: one
					// per tree edge on the sim, PlanBcast.Chunks on the engine.
					sample := core.Delivery{Value: tile.Phantom(nb, nb)}
					chunks := int64(core.PlanBcast(0, map[int]core.Delivery{1: sample, 2: sample},
						core.SendCaps{TreeBroadcast: true, BcastChunk: tc.chunk}).Chunks)
					p2p := func(s trace.Snapshot) int64 { return s.SplitMDTransfers + s.GatherSends + s.CopySends }
					if edges := model.MsgsSent - p2p(model); engine.MsgsSent-p2p(engine) != chunks*edges {
						t.Errorf("MsgsSent: sim %d (%d tree edges), engine %d, want %d packets per edge",
							model.MsgsSent, edges, engine.MsgsSent, chunks)
					} else if tc.chunk > 0 && pre.engine.TreeBroadcast && (chunks < 2 || edges == 0) {
						t.Errorf("chunked case never chunked: %d chunks on %d tree edges", chunks, edges)
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
