package backend_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps/cholesky"
	"repro/internal/backend"
	"repro/internal/core"
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

// TestRelaySoakOverTCPFabric loads the relay rule on real sockets: a
// receive handler that forwards — a broadcast chunk down its tree, a
// reduction partial up its tree, a termination-detection reply — goes
// through Relay, never through the parking SendSegs. Each rank of a
// 4-rank loopback TCP mesh (1 KiB in flight, a quarter of a chunk, so a
// forward finds its queue over the bound whenever anything is queued)
// roots several 64-chunk tree broadcasts at once;
// every receiver folds its copy into a commutative stream owned by
// another rank, whose partials climb the combine tree through interior
// ranks' handlers. Each endpoint sits behind the receive-delay decorator,
// which perturbs the handlers' timing and refuses a SendSegs made inside
// one. A broken rule cannot wedge this mesh — the trees order ranks
// ascending, so a chain of parked handlers always ends at one that
// relays nothing — which is why the decorator is the check. Every
// stream must fold to the exact sum.
func TestRelaySoakOverTCPFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("fabric soak skipped in -short")
	}
	const (
		ranks  = 4
		bcasts = 4       // broadcasts each rank roots at once
		floats = 1 << 15 // 256 KiB per value: 64 chunks of 4 KiB
	)
	// A value's elements differ per root and broadcast, and every sum is
	// exact in float64 whatever the fold order, so a misplaced chunk or a
	// partial folded twice shows in the sums.
	fill := func(root, b int) *vec {
		v := &vec{n: floats, data: make([]float64, floats)}
		for i := range v.data {
			v.data[i] = float64((root*bcasts+b+1)*(i%61+1)) / 8
		}
		return v
	}
	// Broadcast (root, b) reaches every rank; rank dst folds its copy into
	// stream (root + b + dst + 1) mod ranks, owned by that rank.
	stream := func(root, b, dst int) int { return (root + b + dst + 1) % ranks }
	want := make([][]float64, ranks)
	size := make([]int, ranks)
	for k := range want {
		want[k] = make([]float64, floats)
	}
	for root := 0; root < ranks; root++ {
		for b := 0; b < bcasts; b++ {
			v := fill(root, b)
			for dst := 0; dst < ranks; dst++ {
				k := stream(root, b, dst)
				size[k]++
				for i, x := range v.data {
					want[k][i] += x
				}
			}
		}
	}

	mesh, err := netfab.NewLocalMesh(ranks, netfab.Config{Transport: "tcp", MaxInflight: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := make([][]float64, ranks)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for r, ep := range mesh {
			wg.Add(1)
			go func(ep fabric.Endpoint) {
				defer wg.Done()
				o := withWorkers(backend.PaRSEC(), 2)
				o.Fabric = ep
				o.BcastChunk = 4 << 10
				backend.New(0, o).Run(func(p *backend.Proc) {
					g := p.NewGraph()
					seed, data, fold := core.NewEdge("seed"), core.NewEdge("data"), core.NewEdge("fold")
					g.AddTT(core.TTSpec{
						Name:    "root",
						Inputs:  []core.InputSpec{{Edge: seed}},
						Outputs: []core.OutputSpec{{Edge: data}},
						Keymap:  func(k any) int { return k.(serde.Int2)[0] },
						Body: func(ctx *core.TaskContext) {
							k := ctx.Key().Value().(serde.Int2)
							keys := make([]any, ranks)
							for dst := range keys {
								keys[dst] = serde.Int3{k[0], k[1], dst}
							}
							ctx.Broadcast(0, keys, fill(k[0], k[1]))
						},
					})
					g.AddTT(core.TTSpec{
						Name:    "leaf",
						Inputs:  []core.InputSpec{{Edge: data}},
						Outputs: []core.OutputSpec{{Edge: fold}},
						Keymap:  func(k any) int { return k.(serde.Int3)[2] },
						Body: func(ctx *core.TaskContext) {
							k := ctx.Key().Value().(serde.Int3)
							ctx.Send(0, serde.Int1{stream(k[0], k[1], k[2])}, ctx.Input(0))
						},
					})
					g.AddTT(core.TTSpec{
						Name: "sum",
						Inputs: []core.InputSpec{{
							Edge: fold,
							Reducer: func(acc, v any) any {
								if acc == nil {
									w := v.(*vec)
									return &vec{n: w.n, data: append([]float64(nil), w.data...)}
								}
								a := acc.(*vec)
								for i, x := range v.(*vec).data {
									a.data[i] += x
								}
								return a
							},
							StreamSize:  func(k core.Key) int { return size[k.Value().(serde.Int1)[0]] },
							Commutative: true,
						}},
						Keymap: func(k any) int { return k.(serde.Int1)[0] },
						Body: func(ctx *core.TaskContext) {
							mu.Lock()
							got[ctx.Key().Value().(serde.Int1)[0]] = ctx.Input(0).(*vec).data
							mu.Unlock()
						},
					})
					g.Seal()
					p.Bind(g)
					for b := 0; b < bcasts; b++ {
						g.Seed(seed, serde.Int2{p.Rank(), b}, 0.0)
					}
					g.Fence()
				})
			}(&delayEndpoint{Endpoint: ep, rng: rand.New(rand.NewSource(int64(r)))})
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(3 * sendTimeout):
		t.Fatal("relay soak wedged")
	}
	for k := range want {
		if len(got[k]) != floats {
			t.Fatalf("stream %d folded %d elements, want %d", k, len(got[k]), floats)
		}
		for i, x := range want[k] {
			if got[k][i] != x {
				t.Fatalf("stream %d element %d = %v, want %v", k, i, got[k][i], x)
			}
		}
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
