package backend_test

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/netfab"
	"repro/internal/serde"
)

// sendTimeout bounds every wait in this file: a send held back shows up as
// a wedge, which must fail the test rather than hang it.
const sendTimeout = 10 * time.Second

// runOn executes main SPMD on ranks ranks of the engine configured by opts:
// over the in-process simnet ("simnet"), over in-process endpoints behind
// the seeded receive-delay decorator ("delayed"), or over a loopback mesh
// of real sockets ("tcp", "unix"). All but "simnet" run one single-rank
// runtime per endpoint, as in a multi-process run.
func runOn(t *testing.T, transport string, ranks int, opts backend.Options, main func(p *backend.Proc)) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var eps []fabric.Endpoint
		switch transport {
		case "simnet":
			backend.New(ranks, opts).Run(main)
			return
		case "delayed":
			eps = delayed(ranks, 1)
		default:
			mesh, err := netfab.NewLocalMesh(ranks, netfab.Config{Transport: transport})
			if err != nil {
				t.Error(err)
				return
			}
			for _, ep := range mesh {
				eps = append(eps, ep)
			}
		}
		var wg sync.WaitGroup
		for _, ep := range eps {
			wg.Add(1)
			go func(ep fabric.Endpoint) {
				defer wg.Done()
				o := opts
				o.Fabric = ep
				backend.New(0, o).Run(main)
			}(ep)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(3 * sendTimeout):
		t.Fatalf("%s: run wedged", transport)
	}
}

var transports = []string{"simnet", "tcp"}

// TestSendsLeaveWithTheirTask is the regression test for ranks taking
// turns: task A on rank 0 sends to a sink on rank 1 and hands rank 0's
// only worker its successor B (a run-next chain link), and B cannot
// finish until the sink has run. A's message must therefore be on the wire
// before B runs; a send that waits for rank 0 to go idle never leaves.
func TestSendsLeaveWithTheirTask(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr, func(t *testing.T) {
			sunk := make(chan struct{})
			runOn(t, tr, 2, withWorkers(backend.PaRSEC(), 1), func(p *backend.Proc) {
				g := p.NewGraph()
				start, toSink, toB := core.NewEdge("start"), core.NewEdge("sink"), core.NewEdge("b")
				g.AddTT(core.TTSpec{
					Name:    "A",
					Inputs:  []core.InputSpec{{Edge: start}},
					Outputs: []core.OutputSpec{{Edge: toSink}, {Edge: toB}},
					Keymap:  func(any) int { return 0 },
					Body: func(ctx *core.TaskContext) {
						ctx.SendEdge(toSink, ctx.Key(), 1.0, core.SendCopy)
						ctx.SendEdge(toB, ctx.Key(), 1.0, core.SendCopy)
					},
				})
				g.AddTT(core.TTSpec{
					Name:   "B",
					Inputs: []core.InputSpec{{Edge: toB}},
					Keymap: func(any) int { return 0 },
					Body: func(ctx *core.TaskContext) {
						select {
						case <-sunk:
						case <-time.After(sendTimeout):
							t.Error("A's send was still unsent while B ran: rank 1 never overlapped with rank 0")
						}
					},
				})
				g.AddTT(core.TTSpec{
					Name:   "sink",
					Inputs: []core.InputSpec{{Edge: toSink}},
					Keymap: func(any) int { return 1 },
					Body:   func(ctx *core.TaskContext) { close(sunk) },
				})
				g.Seal()
				p.Bind(g)
				if p.Rank() == 0 {
					g.Seed(start, serde.Int1{0}, 0.0)
				}
				g.Fence()
			})
		})
	}
}

// TestPerSenderOrderToOnePeerWithTwoWorkers has two workers of rank 0 fan
// out to rank 1 at once: sender 0 ends a task after every message, sender
// 1 after every twenty, so their packets interleave on the one link. Each
// sender's messages fold into an order-sensitive stream on rank 1 — the
// fold runs in the receive handler in arrival order — which must see every
// sequence number once, in order.
func TestPerSenderOrderToOnePeerWithTwoWorkers(t *testing.T) {
	const total = 400
	perTask := [2]int{1, 20}
	for _, tr := range transports {
		t.Run(tr, func(t *testing.T) {
			var mu sync.Mutex
			got := map[int][]float64{}
			var started sync.WaitGroup
			started.Add(2)
			runOn(t, tr, 2, withWorkers(backend.PaRSEC(), 2), func(p *backend.Proc) {
				g := p.NewGraph()
				step, out := core.NewEdge("step"), core.NewEdge("out")
				g.AddTT(core.TTSpec{
					Name:    "src", // key {sender, first sequence number}
					Inputs:  []core.InputSpec{{Edge: step}},
					Outputs: []core.OutputSpec{{Edge: out}, {Edge: step}},
					Keymap:  func(any) int { return 0 },
					Body: func(ctx *core.TaskContext) {
						k := ctx.Key().Value().(serde.Int2)
						if k[1] == 0 {
							// Both chains are running before either sends.
							started.Done()
							started.Wait()
						}
						next := k[1] + perTask[k[0]]
						for s := k[1]; s < next; s++ {
							ctx.SendEdge(out, core.KeyOf(serde.Int1{k[0]}), float64(s), core.SendCopy)
						}
						if next < total {
							ctx.SendEdge(step, core.KeyOf(serde.Int2{k[0], next}), 0.0, core.SendCopy)
						}
					},
				})
				g.AddTT(core.TTSpec{
					Name: "sink",
					Inputs: []core.InputSpec{{
						Edge: out,
						Reducer: func(acc, v any) any {
							seq, _ := acc.([]float64)
							return append(seq, v.(float64))
						},
						StreamSize: func(core.Key) int { return total },
					}},
					Keymap: func(any) int { return 1 },
					Body: func(ctx *core.TaskContext) {
						mu.Lock()
						got[ctx.Key().Value().(serde.Int1)[0]] = ctx.Input(0).([]float64)
						mu.Unlock()
					},
				})
				g.Seal()
				p.Bind(g)
				if p.Rank() == 0 {
					g.Seed(step, serde.Int2{0, 0}, 0.0)
					g.Seed(step, serde.Int2{1, 0}, 0.0)
				}
				g.Fence()
			})
			for sender := 0; sender < 2; sender++ {
				seq := got[sender]
				if len(seq) != total {
					t.Fatalf("sender %d: %d messages arrived, want %d", sender, len(seq), total)
				}
				for i, v := range seq {
					if v != float64(i) {
						t.Fatalf("sender %d: arrival %d carries sequence number %v", sender, i, v)
					}
				}
			}
		})
	}
}

// TestReceiveHandlerForwardsPartial: a reduction partial that climbs the
// combine tree through a rank with no tasks is folded and forwarded by
// that rank's receive handler. Its pool never wakes, and its main
// goroutine is already inside Fence, so the handler itself must put the
// forwarded partial on the wire — as a relay, which never parks.
func TestReceiveHandlerForwardsPartial(t *testing.T) {
	const ranks, owner = 4, 0
	leaf, relay := -1, -1
	for r := 1; r < ranks; r++ {
		if par := collective.ReduceParent(owner, ranks, r); par != owner {
			leaf, relay = r, par
		}
	}
	if leaf < 0 {
		t.Fatal("no two-hop path in the reduce tree")
	}
	// The delayed leg's decorator refuses a forward that could park.
	for _, tr := range append(transports, "delayed") {
		t.Run(tr, func(t *testing.T) {
			relayFencing := make(chan struct{})
			result := make(chan float64, 1)
			var relaySent, relayTasks, relayWakes int64
			runOn(t, tr, ranks, withWorkers(backend.PaRSEC(), 1), func(p *backend.Proc) {
				g := p.NewGraph()
				start, contrib := core.NewEdge("start"), core.NewEdge("contrib")
				g.AddTT(core.TTSpec{
					Name:    "src",
					Inputs:  []core.InputSpec{{Edge: start}},
					Outputs: []core.OutputSpec{{Edge: contrib}},
					Keymap:  func(any) int { return leaf },
					Body: func(ctx *core.TaskContext) {
						select {
						case <-relayFencing:
						case <-time.After(sendTimeout):
							t.Error("relay rank never reached its fence")
						}
						ctx.SendEdge(contrib, core.KeyOf(serde.Int1{0}), 42.0, core.SendCopy)
					},
				})
				g.AddTT(core.TTSpec{
					Name: "acc",
					Inputs: []core.InputSpec{{
						Edge: contrib,
						Reducer: func(acc, v any) any {
							if acc == nil {
								return v
							}
							return acc.(float64) + v.(float64)
						},
						StreamSize:  func(core.Key) int { return 1 },
						Commutative: true,
					}},
					Keymap: func(any) int { return owner },
					Body:   func(ctx *core.TaskContext) { result <- ctx.Input(0).(float64) },
				})
				g.Seal()
				p.Bind(g)
				switch p.Rank() {
				case leaf:
					g.Seed(start, serde.Int1{0}, 0.0)
				case relay:
					close(relayFencing)
				}
				g.Fence()
				if p.Rank() == relay {
					snap := p.Tracer().Snapshot()
					relaySent, relayTasks = snap.MsgsSent, snap.TasksExecuted
					relayWakes = p.LiveTarget().Sched().Wakes
				}
			})
			select {
			case v := <-result:
				if v != 42 {
					t.Fatalf("reduced value %v, want 42", v)
				}
			default:
				t.Fatal("the stream never completed at its owner")
			}
			if relaySent != 1 || relayTasks != 0 || relayWakes != 0 {
				t.Fatalf("relay rank: %d messages sent, %d tasks, %d pool wakes; want 1, 0, 0",
					relaySent, relayTasks, relayWakes)
			}
		})
	}
}

// recordingEndpoint notes every counted message its rank first-sends
// (Proc.send is the only SendSegs caller; relays go through Relay), in
// departure order.
type recordingEndpoint struct {
	*netfab.Endpoint
	mu   sync.Mutex
	dsts []int
	data [][]byte
}

func (e *recordingEndpoint) SendSegs(dst int, kind uint8, data []byte, segs []serde.Segment) {
	e.mu.Lock()
	e.dsts = append(e.dsts, dst)
	e.data = append(e.data, append([]byte(nil), data...))
	e.mu.Unlock()
	e.Endpoint.SendSegs(dst, kind, data, segs)
}

// TestBroadcastOrderIsDeterministic broadcasts one value from rank 0 to
// keys on ranks 1-3, twenty times over under each preset: the three sends
// must leave in ascending rank order every time — Broadcast walks
// core.PlanBcast's sorted rank list, never the destination map — and each
// destination's frame must be byte-identical across repetitions.
func TestBroadcastOrderIsDeterministic(t *testing.T) {
	run := func(opts backend.Options) *recordingEndpoint {
		eps, err := netfab.NewLocalMesh(4, netfab.Config{Transport: "tcp"})
		if err != nil {
			t.Fatal(err)
		}
		root := &recordingEndpoint{Endpoint: eps[0]}
		var wg sync.WaitGroup
		for r, ep := range eps {
			o := opts
			if o.Fabric = ep; r == 0 {
				o.Fabric = root
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				backend.New(0, o).Run(func(p *backend.Proc) {
					g := p.NewGraph()
					in, out := core.NewEdge("in"), core.NewEdge("out")
					g.AddTT(core.TTSpec{
						Name:    "src",
						Inputs:  []core.InputSpec{{Edge: in}},
						Outputs: []core.OutputSpec{{Edge: out}},
						Keymap:  func(any) int { return 0 },
						Body: func(ctx *core.TaskContext) {
							keys := []core.Key{core.KeyOf(serde.Int1{3}), core.KeyOf(serde.Int1{1}), core.KeyOf(serde.Int1{2})}
							ctx.BroadcastEdge(out, keys, []float64{1, 2, 3}, core.SendCopy)
						},
					})
					g.AddTT(core.TTSpec{
						Name:   "dst",
						Inputs: []core.InputSpec{{Edge: out}},
						Keymap: func(k any) int { return k.(serde.Int1)[0] },
						Body:   func(*core.TaskContext) {},
					})
					g.Seal()
					p.Bind(g)
					if p.Rank() == 0 {
						g.Seed(in, serde.Int1{0}, 0.0)
					}
					g.Fence()
				})
			}()
		}
		wg.Wait()
		return root
	}
	frames := map[string][][]byte{}
	for i := 0; i < 20; i++ {
		for _, preset := range []backend.Options{backend.MADNESS(), backend.PaRSEC()} {
			got := run(withWorkers(preset, 1))
			if !slices.Equal(got.dsts, []int{1, 2, 3}) {
				t.Fatalf("repetition %d: %s broadcast left for ranks %v, want [1 2 3]", i, preset.Name, got.dsts)
			}
			want := frames[preset.Name]
			if want == nil {
				frames[preset.Name] = got.data
				continue
			}
			for j := range want {
				if !bytes.Equal(want[j], got.data[j]) {
					t.Fatalf("repetition %d: %s frame to rank %d changed:\n%x\n%x", i, preset.Name, j+1, want[j], got.data[j])
				}
			}
		}
	}
}
