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
// EagerThreshold is a threshold of the simulator's flavors; with it set
// on the PaRSEC preset the only switch a payload sees is the gather floor
// (1 KiB): a tile under it travels inline as an archive, one over it — and
// over the configured "eager" size — is one by-reference gather packet.
func TestEagerRendezvousSwitch(t *testing.T) {
	o := withWorkers(backend.PaRSEC(), 1)
	o.EagerThreshold = 1024

	// 4x4 tile ≈ 144 wire bytes: under both thresholds.
	got, send, recv := runTileSend(t, "simnet", o, 4, 4, core.SendMove)
	expectTileData(t, got, 4, 4)
	if send.SplitMDTransfers != 0 || send.GatherSends != 0 || send.ArchiveTransfers != 1 || recv.ViewDecodes != 0 {
		t.Fatalf("sub-threshold payload should be one eager send: %+v", send)
	}

	// 64x64 tile = 32 KiB: over both.
	got, send, recv = runTileSend(t, "simnet", o, 64, 64, core.SendMove)
	expectTileData(t, got, 64, 64)
	if send.SplitMDTransfers != 0 || send.GatherSends != 1 || send.ArchiveTransfers != 0 || recv.ViewDecodes != 1 {
		t.Fatalf("super-threshold payload should be splitmd=0 gather=1 views=1: sent %+v, views=%d", send, recv.ViewDecodes)
	}
	if send.MsgsSent != 1 || send.WirePackets != 1 {
		t.Fatalf("MsgsSent = %d, WirePackets = %d, want one kGatherData packet", send.MsgsSent, send.WirePackets)
	}
}

// runBroadcast has every rank broadcast one floats-long vector to a key on
// every rank at once, over transport, and returns the checksum each rank
// received from each root plus rank 0's trace snapshot. Several roots'
// chunks reach a rank together, each broadcast's on its own link.
func runBroadcast(t *testing.T, transport string, ranks, floats, bcastChunk int) (sums map[[2]int]float64, snap trace.Snapshot) {
	t.Helper()
	var mu sync.Mutex
	sums = map[[2]int]float64{}
	o := withWorkers(backend.PaRSEC(), 1)
	o.BcastChunk = bcastChunk
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
				keys := make([]any, ranks)
				for r := 0; r < ranks; r++ {
					keys[r] = serde.Int2{ctx.Rank(), r}
				}
				ctx.Broadcast(0, keys, v)
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

// TestPipelinedBroadcast checks the chunked relay path delivers an
// identical payload to every rank from every root at once, and that
// disabling pipelining (store-and-forward) produces the same result.
func TestPipelinedBroadcast(t *testing.T) {
	const ranks = 8
	const floats = 16384 // 128 KiB payload, 32 chunks at 4 KiB

	want := 0.0
	for i := 0; i < floats; i++ {
		want += float64(i % 97)
	}
	// The delayed leg's decorator refuses a forward that could park.
	for _, tr := range append(transports, "delayed") {
		t.Run(tr, func(t *testing.T) {
			piped, snap := runBroadcast(t, tr, ranks, floats, 4096)
			if len(piped) != ranks*ranks {
				t.Fatalf("pipelined: fired %d times, want %d", len(piped), ranks*ranks)
			}
			for k, s := range piped {
				if s != want {
					t.Fatalf("pipelined: rank %d checksum from root %d %v, want %v", k[1], k[0], s, want)
				}
			}
			// Rank 0 streams a header plus ~32 chunks per child; far more
			// wire packets than the few a store-and-forward tree uses, even
			// with its relays of the other roots' trees, proving the chunk
			// path actually ran.
			if snap.WirePackets < 32 {
				t.Fatalf("pipelined: rank 0 sent %d wire packets; chunking did not engage", snap.WirePackets)
			}

			plain, snap := runBroadcast(t, tr, ranks, floats, -1)
			if len(plain) != ranks*ranks {
				t.Fatalf("store-and-forward: fired %d times, want %d", len(plain), ranks*ranks)
			}
			for k, s := range plain {
				if s != want {
					t.Fatalf("store-and-forward: rank %d checksum from root %d %v, want %v", k[1], k[0], s, want)
				}
			}
			if snap.WirePackets >= 32 {
				t.Fatalf("store-and-forward: rank 0 sent %d wire packets, expected one frame per tree edge", snap.WirePackets)
			}
		})
	}
}
