package backend_test

import (
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/serde"
	"repro/internal/trace"
)

// TestEagerRendezvousSwitch: the engine has no rendezvous to switch to.
// The eager threshold is a property of the simulator's flavors only; on
// the PaRSEC preset the only size switch a payload sees is the gather
// floor (1 KiB): a tile under it travels inline as an archive, one over
// it is one by-reference gather packet.
func TestEagerRendezvousSwitch(t *testing.T) {
	o := withWorkers(backend.PaRSEC(), 1)

	// 4x4 tile ≈ 144 wire bytes: under the floor.
	got, send, recv := runTileSend(t, "simnet", o, 4, 4, core.SendMove)
	expectTileData(t, got, 4, 4)
	if send.SplitMDTransfers != 0 || send.GatherSends != 0 || send.CopySends != 1 || recv.ViewDecodes != 0 {
		t.Fatalf("sub-floor payload should be one eager send: %+v", send)
	}

	// 64x64 tile = 32 KiB: over it.
	got, send, recv = runTileSend(t, "simnet", o, 64, 64, core.SendMove)
	expectTileData(t, got, 64, 64)
	if send.SplitMDTransfers != 0 || send.GatherSends != 1 || send.CopySends != 0 || recv.ViewDecodes != 1 {
		t.Fatalf("over-floor payload should be splitmd=0 gather=1 views=1: sent %+v, views=%d", send, recv.ViewDecodes)
	}
	if send.MsgsSent != 1 || send.WirePackets != 1 {
		t.Fatalf("MsgsSent = %d, WirePackets = %d, want one kGatherData packet", send.MsgsSent, send.WirePackets)
	}
}

// runBroadcast has every rank broadcast one floats-long vector to a key on
// every rank at once, over transport, and returns the checksum each rank
// received from each root plus rank 0's trace snapshot. Several roots'
// values reach a rank together, each root's on its own link.
func runBroadcast(t *testing.T, transport string, ranks, floats int) (sums map[[2]int]float64, snap trace.Snapshot) {
	t.Helper()
	var mu sync.Mutex
	sums = map[[2]int]float64{}
	o := withWorkers(backend.PaRSEC(), 1)
	runOn(t, transport, ranks, o, func(p *backend.Proc) {
		g := p.NewGraph()
		in := core.NewEdge("in")
		out := core.NewEdge("out")
		g.AddTT(core.TTSpec{
			Name:    "src",
			Inputs:  []core.InputSpec{{Edge: in}},
			Outputs: []core.OutputSpec{{Edge: out}},
			Keymap:  func(k any) int { return k.(serde.Int1)[0] },
			Body: func(ctx *core.TaskContext) {
				v := &vec{n: floats, data: make([]float64, floats)}
				for i := range v.data {
					v.data[i] = float64(i % 97)
				}
				keys := make([]core.Key, ranks)
				for r := 0; r < ranks; r++ {
					keys[r] = core.KeyOf(serde.Int2{ctx.Rank(), r})
				}
				ctx.BroadcastEdge(out, keys, v, core.SendCopy)
			},
		})
		g.AddTT(core.TTSpec{
			Name:   "dst",
			Inputs: []core.InputSpec{{Edge: out}},
			Keymap: func(k any) int { return k.(serde.Int2)[1] },
			Body: func(ctx *core.TaskContext) {
				v := ctx.Input(0).(*vec)
				s := 0.0
				for _, x := range v.data {
					s += x
				}
				mu.Lock()
				sums[[2]int{ctx.Key().Value().(serde.Int2)[0], ctx.Rank()}] = s
				mu.Unlock()
			},
		})
		g.Seal()
		p.Bind(g)
		g.Seed(in, serde.Int1{p.Rank()}, 0.0)
		g.Fence()
		if p.Rank() == 0 {
			snap = p.Tracer().Snapshot()
		}
	})
	return
}

// TestPipelinedBroadcast checks that every rank broadcasting a 128 KiB
// value to every rank at once delivers an identical payload everywhere,
// and that each root sends one packet per remote destination.
func TestPipelinedBroadcast(t *testing.T) {
	const ranks = 8
	const floats = 16384 // 128 KiB payload

	want := 0.0
	for i := 0; i < floats; i++ {
		want += float64(i % 97)
	}
	// The delayed leg's decorator refuses a handler send that could park.
	for _, tr := range append(transports, "delayed") {
		t.Run(tr, func(t *testing.T) {
			sums, snap := runBroadcast(t, tr, ranks, floats)
			if len(sums) != ranks*ranks {
				t.Fatalf("fired %d times, want %d", len(sums), ranks*ranks)
			}
			for k, s := range sums {
				if s != want {
					t.Fatalf("rank %d checksum from root %d %v, want %v", k[1], k[0], s, want)
				}
			}
			if snap.MsgsSent != ranks-1 {
				t.Fatalf("rank 0 sent %d messages, want one to each of its %d remote destinations", snap.MsgsSent, ranks-1)
			}
		})
	}
}
