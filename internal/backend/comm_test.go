package backend_test

import (
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/serde"
	"repro/internal/trace"
)

// TestEagerRendezvousSwitch pins the protocol auto-selection to both sides
// of the configured threshold: a payload under it travels inline (archive),
// one over it takes the splitmd rendezvous path.
func TestEagerRendezvousSwitch(t *testing.T) {
	run := func(floats int) (snap trace.Snapshot, last float64) {
		o := withWorkers(backend.PaRSEC(), 1)
		o.EagerThreshold = 1024
		rt := backend.New(2, o)
		rt.Run(func(p *backend.Proc) {
			g := p.NewGraph()
			in := core.NewEdge("in")
			out := core.NewEdge("out")
			g.AddTT(core.TTSpec{
				Name:    "src",
				Inputs:  []core.InputSpec{{Edge: in}},
				Outputs: []core.OutputSpec{{Edge: out}},
				Keymap:  func(any) int { return 0 },
				Body: func(ctx *core.TaskContext) {
					v := &vec{n: floats, data: make([]float64, floats)}
					for i := range v.data {
						v.data[i] = float64(i)
					}
					ctx.SendMode(0, ctx.Key(), v, core.SendMove)
				},
			})
			g.AddTT(core.TTSpec{
				Name:   "dst",
				Inputs: []core.InputSpec{{Edge: out}},
				Keymap: func(any) int { return 1 },
				Body: func(ctx *core.TaskContext) {
					v := ctx.Input(0).(*vec)
					last = v.data[len(v.data)-1]
				},
			})
			g.Seal()
			p.Bind(g)
			if p.Rank() == 0 {
				g.Seed(in, serde.Int1{0}, 0.0)
			}
			g.Fence()
			if p.Rank() == 0 {
				snap = p.Tracer().Snapshot()
			}
		})
		return
	}

	// 16 floats ≈ 140 wire bytes: well under the 1024-byte threshold.
	snap, last := run(16)
	if last != 15 {
		t.Fatalf("eager payload corrupted: last = %v", last)
	}
	if snap.SplitMDTransfers != 0 || snap.ArchiveTransfers != 1 {
		t.Fatalf("sub-threshold payload should be one eager send: %+v", snap)
	}

	// 1024 floats ≈ 8 KiB: well over the threshold.
	snap, last = run(1024)
	if last != 1023 {
		t.Fatalf("rendezvous payload corrupted: last = %v", last)
	}
	if snap.SplitMDTransfers != 1 || snap.ArchiveTransfers != 0 {
		t.Fatalf("super-threshold payload should be one splitmd rendezvous: %+v", snap)
	}
}

// runBroadcast broadcasts one floats-long vector from rank 0 to all ranks
// and returns each rank's received checksum plus the root trace snapshot.
func runBroadcast(t *testing.T, ranks, floats, bcastChunk int) (sums map[int]float64, snap trace.Snapshot) {
	t.Helper()
	var mu sync.Mutex
	sums = map[int]float64{}
	o := withWorkers(backend.PaRSEC(), 1)
	o.BcastChunk = bcastChunk
	rt := backend.New(ranks, o)
	rt.Run(func(p *backend.Proc) {
		g := p.NewGraph()
		in := core.NewEdge("in")
		out := core.NewEdge("out")
		g.AddTT(core.TTSpec{
			Name:    "src",
			Inputs:  []core.InputSpec{{Edge: in}},
			Outputs: []core.OutputSpec{{Edge: out}},
			Keymap:  func(any) int { return 0 },
			Body: func(ctx *core.TaskContext) {
				v := &vec{n: floats, data: make([]float64, floats)}
				for i := range v.data {
					v.data[i] = float64(i % 97)
				}
				keys := make([]any, ranks)
				for r := 0; r < ranks; r++ {
					keys[r] = serde.Int1{r}
				}
				ctx.Broadcast(0, keys, v)
			},
		})
		g.AddTT(core.TTSpec{
			Name:   "dst",
			Inputs: []core.InputSpec{{Edge: out}},
			Keymap: func(k any) int { return k.(serde.Int1)[0] % ranks },
			Body: func(ctx *core.TaskContext) {
				v := ctx.Input(0).(*vec)
				s := 0.0
				for _, x := range v.data {
					s += x
				}
				mu.Lock()
				sums[ctx.Rank()] = s
				mu.Unlock()
			},
		})
		g.Seal()
		p.Bind(g)
		if p.Rank() == 0 {
			g.Seed(in, serde.Int1{0}, 0.0)
		}
		g.Fence()
		if p.Rank() == 0 {
			snap = p.Tracer().Snapshot()
		}
	})
	return
}

// TestPipelinedBroadcast checks the chunked relay path delivers an
// identical payload to every rank, and that disabling pipelining
// (store-and-forward) produces the same result.
func TestPipelinedBroadcast(t *testing.T) {
	const ranks = 8
	const floats = 16384 // 128 KiB payload, 32 chunks at 4 KiB

	want := 0.0
	for i := 0; i < floats; i++ {
		want += float64(i % 97)
	}

	piped, snap := runBroadcast(t, ranks, floats, 4096)
	if len(piped) != ranks {
		t.Fatalf("pipelined: fired on %d ranks, want %d", len(piped), ranks)
	}
	for r, s := range piped {
		if s != want {
			t.Fatalf("pipelined: rank %d checksum %v, want %v", r, s, want)
		}
	}
	// The root streams a header plus ~32 chunks per child; far more wire
	// packets than the 3 a store-and-forward tree would use, proving the
	// chunk path actually ran.
	if snap.WirePackets < 32 {
		t.Fatalf("pipelined: root sent %d wire packets; chunking did not engage", snap.WirePackets)
	}

	plain, snap := runBroadcast(t, ranks, floats, -1)
	if len(plain) != ranks {
		t.Fatalf("store-and-forward: fired on %d ranks, want %d", len(plain), ranks)
	}
	for r, s := range plain {
		if s != want {
			t.Fatalf("store-and-forward: rank %d checksum %v, want %v", r, s, want)
		}
	}
	if snap.WirePackets >= 32 {
		t.Fatalf("store-and-forward: root sent %d wire packets, expected one frame per child", snap.WirePackets)
	}
}
