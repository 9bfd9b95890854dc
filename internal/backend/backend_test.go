package backend_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/serde"
	"repro/internal/trace"
)

// withWorkers returns preset o sized to n workers per rank.
func withWorkers(o backend.Options, n int) backend.Options {
	o.WorkersPerRank = n
	return o
}

// vec is the payload of the transport tests. It opts in to splitmd but has
// no gather codec, so on the engine it always crosses copy-encoded.
type vec struct {
	n    int
	data []float64
}

func (v *vec) PayloadBytes() int { return 8 * len(v.data) }

func init() {
	serde.Register(serde.FuncCodec[*vec]{
		Enc: func(b *serde.Buffer, v *vec) {
			b.PutVarint(int64(v.n))
			b.PutF64s(v.data)
		},
		Dec: func(b *serde.Buffer) *vec {
			return &vec{n: int(b.Varint()), data: b.F64s()}
		},
		Size: func(v *vec) int { return 12 + 8*len(v.data) },
		Copy: func(v *vec) *vec {
			d := make([]float64, len(v.data))
			copy(d, v.data)
			return &vec{n: v.n, data: d}
		},
	})
	serde.RegisterSplitMD(&vec{})
}

// buildChain assembles a K-stage pipeline where stage i adds i to the
// value and forwards; stage ownership round-robins across ranks, so every
// hop crosses the network.
func buildChain(p *backend.Proc, stages int, sink func(k serde.Int1, v float64)) (*core.Graph, *core.Edge) {
	g := p.NewGraph()
	edges := make([]*core.Edge, stages+1)
	for i := range edges {
		edges[i] = core.NewEdge("e")
	}
	for i := 0; i < stages; i++ {
		i := i
		g.AddTT(core.TTSpec{
			Name:    "stage",
			Inputs:  []core.InputSpec{{Edge: edges[i]}},
			Outputs: []core.OutputSpec{{Edge: edges[i+1]}},
			Keymap:  func(k any) int { return (k.(serde.Int1)[0] + i) % p.Size() },
			Body: func(ctx *core.TaskContext) {
				ctx.SendEdge(edges[i+1], ctx.Key(), ctx.Input(0).(float64)+float64(i), core.SendCopy)
			},
		})
	}
	g.AddTT(core.TTSpec{
		Name:   "sink",
		Inputs: []core.InputSpec{{Edge: edges[stages]}},
		Keymap: func(k any) int { return k.(serde.Int1)[0] % p.Size() },
		Body: func(ctx *core.TaskContext) {
			sink(ctx.Key().Value().(serde.Int1), ctx.Input(0).(float64))
		},
	})
	g.Seal()
	return g, edges[0]
}

// runChain runs a stages-deep chain on keys keys; run executes its SPMD
// main (a Runtime's Run, or runOn over some transport).
func runChain(t *testing.T, run func(main func(p *backend.Proc)), keys int, stages int) map[int]float64 {
	t.Helper()
	var mu sync.Mutex
	results := map[int]float64{}
	run(func(p *backend.Proc) {
		g, in := buildChain(p, stages, func(k serde.Int1, v float64) {
			mu.Lock()
			results[k[0]] = v
			mu.Unlock()
		})
		p.Bind(g)
		if p.Rank() == 0 {
			for k := 0; k < keys; k++ {
				g.Seed(in, serde.Int1{k}, float64(k))
			}
		}
		g.Fence()
	})
	return results
}

func expectChain(t *testing.T, results map[int]float64, keys, stages int) {
	t.Helper()
	if len(results) != keys {
		t.Fatalf("got %d results, want %d", len(results), keys)
	}
	sum := 0
	for i := 0; i < stages; i++ {
		sum += i
	}
	for k := 0; k < keys; k++ {
		if want := float64(k + sum); results[k] != want {
			t.Fatalf("key %d: got %v want %v", k, results[k], want)
		}
	}
}

func TestChainAcrossRanksParsec(t *testing.T) {
	rt := backend.New(4, withWorkers(backend.PaRSEC(), 2))
	results := runChain(t, rt.Run, 20, 8)
	expectChain(t, results, 20, 8)
}

func TestChainAcrossRanksMadness(t *testing.T) {
	rt := backend.New(4, withWorkers(backend.MADNESS(), 2))
	results := runChain(t, rt.Run, 20, 8)
	expectChain(t, results, 20, 8)
}

// TestChainWithNetworkLatency runs the chain with every rank's receive
// handler slowed by the seeded receive-delay decorator.
func TestChainWithNetworkLatency(t *testing.T) {
	results := runChain(t, func(main func(p *backend.Proc)) {
		runOn(t, "delayed", 3, withWorkers(backend.PaRSEC(), 2), main)
	}, 10, 5)
	expectChain(t, results, 10, 5)
}

func TestAllSchedulerPolicies(t *testing.T) {
	for _, pol := range []sched.Policy{sched.PolicyFIFO, sched.PolicyStealPrio} {
		t.Run(pol.String(), func(t *testing.T) {
			o := withWorkers(backend.PaRSEC(), 2)
			o.Policy = pol
			rt := backend.New(2, o)
			results := runChain(t, rt.Run, 12, 4)
			expectChain(t, results, 12, 4)
		})
	}
}

// TestPresets pins the paper's §II-D property list: what New builds from
// each preset, with only the worker count filled in. The two send caps the
// engine has, TracksData and GatherThreshold, are the sim flavor's by
// construction; an unset gather floor resolves to its default when read,
// not when stored.
func TestPresets(t *testing.T) {
	for _, tc := range []struct {
		preset backend.Options
		flavor cluster.Flavor
		name   string
		policy sched.Policy
		tracks bool
	}{
		{backend.PaRSEC(), cluster.ParsecFlavor(), "parsec", sched.PolicyStealPrio, true},
		{backend.MADNESS(), cluster.MadnessFlavor(), "madness", sched.PolicyFIFO, false},
	} {
		rt := backend.New(2, tc.preset)
		o := rt.Options()
		rt.Shutdown()
		if o.Name != tc.name || o.Policy != tc.policy || o.TracksData != tc.tracks {
			t.Errorf("%s preset wrong: %+v", tc.name, o)
		}
		if o.Name != tc.flavor.Name || o.TracksData != tc.flavor.TracksData || o.GatherThreshold != tc.flavor.GatherThreshold {
			t.Errorf("%s: engine preset %+v does not have sim flavor %+v's name, TracksData and GatherThreshold", tc.name, o, tc.flavor)
		}
		if o.WorkersPerRank < 1 || o.GatherThreshold != 0 {
			t.Errorf("%s defaults wrong: %+v", tc.name, o)
		}
	}
}

// TestSplitMDProtocolSelection: opting in to splitmd selects nothing on the
// engine. Under either preset a large splitmd-capable value crosses by
// what its codec offers — one by-reference gather packet decoded as a view
// when it has a gather codec (a 32 KiB tile), one copy-encoded archive when
// it has not (vec) — and never by rendezvous.
func TestSplitMDProtocolSelection(t *testing.T) {
	sendVec := func(rt *backend.Runtime) (got []float64, snap trace.Snapshot) {
		var mu sync.Mutex
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
					big := &vec{n: 4096, data: make([]float64, 4096)}
					for i := range big.data {
						big.data[i] = float64(i)
					}
					ctx.SendEdge(out, ctx.Key(), big, core.SendMove)
				},
			})
			g.AddTT(core.TTSpec{
				Name:   "dst",
				Inputs: []core.InputSpec{{Edge: out}},
				Keymap: func(any) int { return 1 },
				Body: func(ctx *core.TaskContext) {
					v := ctx.Input(0).(*vec)
					mu.Lock()
					got = append(got, v.data[4095])
					mu.Unlock()
				},
			})
			g.Seal()
			p.Bind(g)
			if p.Rank() == 0 {
				g.Seed(in, serde.Int1{0}, 0.0)
			}
			g.Fence()
			// Summed over both ranks: a transfer is counted where it is
			// sent, so the one large value is one transfer cluster-wide.
			mu.Lock()
			snap = snap.Add(p.Stats())
			mu.Unlock()
		})
		return
	}

	for _, preset := range []backend.Options{backend.PaRSEC(), backend.MADNESS()} {
		opts := withWorkers(preset, 1)
		got, snap := sendVec(backend.New(2, opts))
		if len(got) != 1 || got[0] != 4095 {
			t.Fatalf("%s: vec payload corrupted: %v", opts.Name, got)
		}
		if snap.SplitMDTransfers != 0 || snap.GatherSends != 0 || snap.CopySends != 1 {
			t.Fatalf("%s: want the one 32KB vec sent as an archive, counted once: %+v", opts.Name, snap)
		}

		data, send, recv := runTileSend(t, "simnet", opts, 64, 64, core.SendMove)
		expectTileData(t, data, 64, 64)
		if send.SplitMDTransfers != 0 || send.GatherSends != 1 || recv.ViewDecodes != 1 || send.CopySends != 0 {
			t.Fatalf("%s: want the one 32KB tile as splitmd=0 gather=1 views=1: sent %+v, views=%d",
				opts.Name, send, recv.ViewDecodes)
		}
		if send.MsgsSent != 1 || send.WirePackets != 1 {
			t.Fatalf("%s: MsgsSent = %d, WirePackets = %d, want one kGatherData packet",
				opts.Name, send.MsgsSent, send.WirePackets)
		}
	}
}

// TestBroadcastPointToPoint sends one value to every rank and checks the
// root sent one packet to each of its 7 remote destinations, no other rank
// sent any (nothing relays), and every task fired once.
func TestBroadcastPointToPoint(t *testing.T) {
	const ranks = 8
	var mu sync.Mutex
	fired := map[int]int{}
	sent := map[int]int64{}
	rt := backend.New(ranks, withWorkers(backend.PaRSEC(), 1))
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
				keys := make([]core.Key, ranks)
				for r := 0; r < ranks; r++ {
					keys[r] = core.KeyOf(serde.Int1{r})
				}
				ctx.BroadcastEdge(out, keys, 3.14, core.SendCopy)
			},
		})
		g.AddTT(core.TTSpec{
			Name:   "dst",
			Inputs: []core.InputSpec{{Edge: out}},
			Keymap: func(k any) int { return k.(serde.Int1)[0] % ranks },
			Body: func(ctx *core.TaskContext) {
				mu.Lock()
				fired[ctx.Rank()]++
				mu.Unlock()
			},
		})
		g.Seal()
		p.Bind(g)
		if p.Rank() == 0 {
			g.Seed(in, serde.Int1{0}, 0.0)
		}
		g.Fence()
		mu.Lock()
		sent[p.Rank()] = p.Tracer().Snapshot().MsgsSent
		mu.Unlock()
	})
	if len(fired) != ranks {
		t.Fatalf("broadcast fired on %d ranks, want %d", len(fired), ranks)
	}
	for r, c := range fired {
		if c != 1 {
			t.Fatalf("rank %d fired %d times", r, c)
		}
	}
	for r, n := range sent {
		want := int64(0)
		if r == 0 {
			want = ranks - 1
		}
		if n != want {
			t.Errorf("rank %d sent %d packets, want %d", r, n, want)
		}
	}
}

// TestMultipleFences runs two phases separated by fences in one graph.
func TestMultipleFences(t *testing.T) {
	const ranks = 3
	var mu sync.Mutex
	var phase1, phase2 int
	rt := backend.New(ranks, withWorkers(backend.PaRSEC(), 2))
	rt.Run(func(p *backend.Proc) {
		g := p.NewGraph()
		in := core.NewEdge("in")
		g.AddTT(core.TTSpec{
			Name:   "work",
			Inputs: []core.InputSpec{{Edge: in}},
			Keymap: func(k any) int { return k.(serde.Int1)[0] % ranks },
			Body: func(ctx *core.TaskContext) {
				mu.Lock()
				if ctx.Input(0).(int) == 1 {
					phase1++
				} else {
					phase2++
				}
				mu.Unlock()
			},
		})
		g.Seal()
		p.Bind(g)
		if p.Rank() == 0 {
			for k := 0; k < 10; k++ {
				g.Seed(in, serde.Int1{k}, 1)
			}
		}
		g.Fence()
		mu.Lock()
		p1 := phase1
		mu.Unlock()
		if p1 != 10 {
			t.Errorf("after fence 1: phase1 = %d, want 10", p1)
		}
		if p.Rank() == 1 {
			for k := 10; k < 15; k++ {
				g.Seed(in, serde.Int1{k}, 2)
			}
		}
		g.Fence()
	})
	if phase1 != 10 || phase2 != 5 {
		t.Fatalf("phase1=%d phase2=%d, want 10, 5", phase1, phase2)
	}
}

// TestDeepRecursiveUnfold exercises dynamic data-dependent DAG unfolding:
// each task spawns children until a depth limit, across ranks.
func TestDeepRecursiveUnfold(t *testing.T) {
	const ranks = 4
	const depth = 7
	var count int64
	var mu sync.Mutex
	rt := backend.New(ranks, withWorkers(backend.PaRSEC(), 2))
	rt.Run(func(p *backend.Proc) {
		g := p.NewGraph()
		e := core.NewEdge("rec")
		g.AddTT(core.TTSpec{
			Name:    "node",
			Inputs:  []core.InputSpec{{Edge: e}},
			Outputs: []core.OutputSpec{{Edge: e}},
			Keymap:  func(k any) int { return core.HashKey(core.KeyOf(k)) % ranks },
			Body: func(ctx *core.TaskContext) {
				mu.Lock()
				count++
				mu.Unlock()
				k := ctx.Key().Value().(serde.Int2)
				if k[0] < depth {
					ctx.SendEdge(e, core.KeyOf(serde.Int2{k[0] + 1, k[1] * 2}), 0.0, core.SendCopy)
					ctx.SendEdge(e, core.KeyOf(serde.Int2{k[0] + 1, k[1]*2 + 1}), 0.0, core.SendCopy)
				}
			},
		})
		g.Seal()
		p.Bind(g)
		if p.Rank() == 0 {
			g.Seed(e, serde.Int2{0, 0}, 0.0)
		}
		g.Fence()
	})
	if want := int64(1<<(depth+1) - 1); count != want {
		t.Fatalf("unfolded %d tasks, want %d", count, want)
	}
}

// TestStreamingAcrossRanks drives a streaming terminal fed by a fan of
// producers: spread over every rank with the sink on rank 2, and — the
// panel shape — each rank running a fan and a sink of its own, whose keys
// all stay home and which must therefore put nothing on the wire.
func TestStreamingAcrossRanks(t *testing.T) {
	const ranks, fan = 4, 16
	for _, tc := range []struct {
		name      string
		rankLocal bool
	}{{"remote senders", false}, {"rank-local panels", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var totals [ranks]float64 // by the rank that seeded the fan
			rt := backend.New(ranks, withWorkers(backend.PaRSEC(), 1))
			rt.Run(func(p *backend.Proc) {
				g := p.NewGraph()
				in := core.NewEdge("in")
				acc := core.NewEdge("acc")
				g.AddTT(core.TTSpec{
					Name:    "produce", // key {seeding rank, i}
					Inputs:  []core.InputSpec{{Edge: in}},
					Outputs: []core.OutputSpec{{Edge: acc}},
					Keymap: func(k any) int {
						if tc.rankLocal {
							return k.(serde.Int2)[0]
						}
						return k.(serde.Int2)[1] % ranks
					},
					Body: func(ctx *core.TaskContext) {
						k := ctx.Key().Value().(serde.Int2)
						ctx.SendEdge(acc, core.KeyOf(serde.Int1{k[0]}), float64(k[1]), core.SendCopy)
					},
				})
				g.AddTT(core.TTSpec{
					Name: "reduce",
					Inputs: []core.InputSpec{{
						Edge: acc,
						Reducer: func(a, v any) any {
							if a == nil {
								return v
							}
							return a.(float64) + v.(float64)
						},
						StreamSize: func(core.Key) int { return fan },
					}},
					Keymap: func(k any) int {
						if tc.rankLocal {
							return k.(serde.Int1)[0]
						}
						return 2
					},
					Body: func(ctx *core.TaskContext) {
						totals[ctx.Key().Value().(serde.Int1)[0]] = ctx.Input(0).(float64)
					},
				})
				g.Seal()
				p.Bind(g)
				if tc.rankLocal || p.Rank() == 0 {
					for i := 0; i < fan; i++ {
						g.Seed(in, serde.Int2{p.Rank(), i}, 0.0)
					}
				}
				g.Fence()
				if s := p.Tracer().Snapshot(); tc.rankLocal && (s.MsgsSent != 0 || s.WirePackets != 0) {
					t.Errorf("rank %d: %d messages in %d wire packets from a rank-local graph",
						p.Rank(), s.MsgsSent, s.WirePackets)
				}
			})
			for r, total := range totals {
				want := 120.0 // 0+1+...+15
				if !tc.rankLocal && r != 0 {
					want = 0
				}
				if total != want {
					t.Fatalf("stream seeded by rank %d totals %v, want %v", r, total, want)
				}
			}
		})
	}
}

// fanInSharing runs one remote send of a single value to two consumers on
// the far rank of a 2-rank run over the delayed in-process fabric, and
// reports whether they saw the same physical object. The consumers are
// two task IDs of one template (templates 1), or one task ID each of two
// templates (templates 2): the arrival then carries two terminal targets.
func fanInSharing(t *testing.T, opts backend.Options, mode core.SendMode, access core.AccessMode, templates int) (shared bool, vals []float64) {
	t.Helper()
	var mu sync.Mutex
	var ptrs []*float64
	keys := []core.Key{core.KeyOf(serde.Int1{1}), core.KeyOf(serde.Int1{2})}[:3-templates]
	runOn(t, "delayed", 2, opts, func(p *backend.Proc) {
		g := p.NewGraph()
		in := core.NewEdge("in")
		out := core.NewEdge("out")
		g.AddTT(core.TTSpec{
			Name:    "src",
			Inputs:  []core.InputSpec{{Edge: in}},
			Outputs: []core.OutputSpec{{Edge: out}},
			Keymap:  func(any) int { return 0 },
			Body: func(ctx *core.TaskContext) {
				v := &vec{n: 2, data: []float64{40, 2}}
				ctx.BroadcastEdge(out, keys, v, mode)
			},
		})
		for i := range templates {
			g.AddTT(core.TTSpec{
				Name:   fmt.Sprintf("dst%d", i),
				Inputs: []core.InputSpec{{Edge: out, Access: access}},
				Keymap: func(any) int { return 1 },
				Body: func(ctx *core.TaskContext) {
					v := ctx.Input(0).(*vec)
					mu.Lock()
					ptrs = append(ptrs, &v.data[0])
					vals = append(vals, v.data[0]+v.data[1])
					mu.Unlock()
				},
			})
		}
		g.Seal()
		p.Bind(g)
		if p.Rank() == 0 {
			g.Seed(in, serde.Int1{0}, 0.0)
		}
		g.Fence()
	})
	if len(ptrs) != 2 {
		t.Fatalf("ran %d consumers, want 2", len(ptrs))
	}
	return ptrs[0] == ptrs[1], vals
}

// TestRemoteFanInSharingSimnet checks data-tracking semantics across the
// in-process fabric, each receive handler slowed by the receive-delay
// decorator: one value broadcast to two read-only consumers on the far
// rank crosses the wire once and is shared in memory on arrival under a
// tracking runtime (PaRSEC model), but is cloned per consumer under the
// eager-copy MADNESS model. Send modes survive the wire either way.
func TestRemoteFanInSharingSimnet(t *testing.T) {
	par, mad := withWorkers(backend.PaRSEC(), 2), withWorkers(backend.MADNESS(), 2)

	shared, vals := fanInSharing(t, par, core.SendMove, core.ReadOnly, 1)
	if !shared {
		t.Errorf("parsec: remote read-only consumers did not share one value")
	}
	for _, v := range vals {
		if v != 42 {
			t.Errorf("parsec: consumer saw %v, want 42", v)
		}
	}

	// ReadWrite consumers must never share, tracking runtime or not.
	shared, _ = fanInSharing(t, par, core.SendMove, core.ReadWrite, 1)
	if shared {
		t.Errorf("parsec: remote read-write consumers shared one value")
	}

	shared, vals = fanInSharing(t, mad, core.SendCopy, core.ReadOnly, 1)
	if shared {
		t.Errorf("madness: eager-copy runtime shared a value across consumers")
	}
	for _, v := range vals {
		if v != 42 {
			t.Errorf("madness: consumer saw %v, want 42", v)
		}
	}

	// Default-access consumers of two templates, reached by one arrival:
	// only its first landing may take the object itself, whatever the
	// preset and send mode.
	for _, opts := range []backend.Options{par, mad} {
		for _, m := range []struct {
			name string
			mode core.SendMode
		}{{"copy", core.SendCopy}, {"move", core.SendMove}} {
			name := m.name
			shared, vals = fanInSharing(t, opts, m.mode, core.AccessDefault, 2)
			if shared {
				t.Errorf("%s %s: two templates' default-access consumers shared one value", opts.Name, name)
			}
			for _, v := range vals {
				if v != 42 {
					t.Errorf("%s %s: consumer saw %v, want 42", opts.Name, name, v)
				}
			}
		}
	}
}
