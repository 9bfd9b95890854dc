package backend_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/apps/cholesky"
	"repro/internal/backend"
	"repro/internal/fabric"
	"repro/internal/netfab"
	"repro/internal/serde"
	"repro/internal/tile"
	"repro/ttg"
)

// TestRandomGraphOverTCPFabric soaks the real-network transport: the
// randomized layered programs of random_graph_test.go run SPMD over a
// 4-rank local mesh of real TCP sockets — one single-rank runtime per
// goroutine — with a deliberately tiny in-flight bound so the writer's
// frame batching, vectored writes, and sender backpressure all cycle
// constantly. The per-sink sums must match the 1-rank in-process
// reference. Run under -race this covers the full socket path: writer
// batching, pooled receive landing, and graceful close.
func TestRandomGraphOverTCPFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("fabric soak skipped in -short")
	}
	const ranks = 4
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rp := newRandProgram(seed)
			ref := rp.run(t, ttg.PaRSEC, 1)
			for _, be := range []ttg.Backend{ttg.PaRSEC, ttg.MADNESS} {
				mesh, err := netfab.NewLocalMesh(ranks, netfab.Config{
					Transport:   "tcp",
					MaxInflight: 4 << 10, // park senders constantly
				})
				if err != nil {
					t.Fatal(err)
				}
				eps := make([]fabric.Endpoint, ranks)
				for r, ep := range mesh {
					eps[r] = ep
				}
				closed := ledgerCloses(t)
				sums := rp.runEach(t, be, eps)
				closed(be.String())
				expectSums(t, be.String(), sums, ref)
			}
		})
	}
}

// countingEndpoint counts what its runtime hands the fabric: every send
// bound for another rank, and those that are counted messages (any kind
// but termination-detection control).
type countingEndpoint struct {
	*netfab.Endpoint
	remote, counted atomic.Int64
}

func (e *countingEndpoint) note(dst int, kind uint8) {
	if dst != e.Rank() {
		e.remote.Add(1)
	}
	if kind != backend.KCtrl {
		e.counted.Add(1)
	}
}

func (e *countingEndpoint) Relay(dst int, kind uint8, data []byte, segs []serde.Segment) {
	e.note(dst, kind)
	e.Endpoint.Relay(dst, kind, data, segs)
}

func (e *countingEndpoint) SendSegs(dst int, kind uint8, data []byte, segs []serde.Segment) {
	e.note(dst, kind)
	e.Endpoint.SendSegs(dst, kind, data, segs)
}

// TestFramesEqualMessages asserts "one frame per counted message" at the
// socket: a 2-rank Cholesky (n=1024, nb=128: every tile is a 128 KiB
// by-reference payload) runs over loopback TCP with each endpoint behind
// a counting decorator. After the endpoints close, the sends of any kind
// but kCtrl must equal MsgsSent summed over the ranks, and the frames the
// links report written (the bootstrap hellos bypass the per-peer writers
// and are not among them) must equal the sends the runtime made to
// another rank — the transport originates no frame of its own.
func TestFramesEqualMessages(t *testing.T) {
	raw, err := netfab.NewLocalMesh(2, netfab.Config{Transport: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	grid := tile.Grid{N: 1024, NB: 128}
	var msgsSent atomic.Int64
	var eps [2]*countingEndpoint
	var wg sync.WaitGroup
	for r := range eps {
		eps[r] = &countingEndpoint{Endpoint: raw[r]}
		wg.Add(1)
		go func(ep *countingEndpoint) {
			defer wg.Done()
			o := withWorkers(backend.PaRSEC(), 1)
			o.Fabric = ep
			// Run closes the endpoint after the fence.
			backend.New(0, o).Run(func(p *backend.Proc) {
				g := ttg.NewGraphOn(p)
				app := cholesky.Build(g, cholesky.Options{Grid: grid, Priorities: true})
				g.MakeExecutable()
				app.Seed()
				g.Fence()
				msgsSent.Add(p.Stats().MsgsSent)
			})
		}(eps[r])
	}
	wg.Wait()

	var counted, remote, frames int64
	for _, ep := range eps {
		counted += ep.counted.Load()
		remote += ep.remote.Load()
		for _, st := range ep.PeerStats() {
			frames += st.TxFrames
		}
	}
	if msgsSent.Load() == 0 {
		t.Fatal("no message crossed: the run exercised nothing")
	}
	if counted != msgsSent.Load() {
		t.Errorf("%d sends of a kind other than kCtrl for MsgsSent = %d, want one each", counted, msgsSent.Load())
	}
	if frames != remote {
		t.Errorf("links wrote %d frames for %d sends to another rank, want one each", frames, remote)
	}
}
