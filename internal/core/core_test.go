package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/serde"
	"repro/internal/trace"
)

// mockCluster wires N graphs with synchronous executors: Submit runs the
// task inline; Deliver serializes through the wire format and injects into
// the destination graph, so remote values really round-trip through bytes.
type mockCluster struct {
	graphs []*Graph
	execs  []*mockExec
}

type mockExec struct {
	c          *mockCluster
	rank, size int
	tracks     bool
	tr         trace.Collector
	obs        obs.Recorder // nil unless a test attaches a recorder
	deliveries int          // remote Deliver/Broadcast sends, for dedup assertions
	mu         sync.Mutex
}

func newMockCluster(n int, tracks bool) *mockCluster {
	c := &mockCluster{}
	for r := 0; r < n; r++ {
		ex := &mockExec{c: c, rank: r, size: n, tracks: tracks}
		c.execs = append(c.execs, ex)
		c.graphs = append(c.graphs, NewGraph(ex))
	}
	return c
}

func (e *mockExec) Rank() int { return e.rank }
func (e *mockExec) Size() int { return e.size }
func (e *mockExec) Submit(t *Task) {
	t.Execute(0)
}
func (e *mockExec) SubmitBatch(ts []*Task) {
	for _, t := range ts {
		t.Execute(0)
	}
}
func (e *mockExec) Deliver(dest int, d Delivery) {
	e.mu.Lock()
	e.deliveries++
	e.mu.Unlock()
	// Round-trip through bytes to emulate the wire.
	b := serde.NewBuffer(128)
	EncodeHeader(b, d)
	hasVal := d.Control == CtrlNone
	b.PutBool(hasVal)
	if hasVal {
		serde.EncodeAny(b, d.Value)
	}
	r := serde.FromBytes(b.Bytes())
	out := DecodeHeader(r)
	if r.Bool() {
		out.Value = serde.DecodeAny(r)
		out.Exclusive = true // deserialized: the receiver owns the bytes
	}
	e.c.graphs[dest].Inject(out)
}
func (e *mockExec) Broadcast(dests map[int]Delivery) {
	for dst, d := range dests {
		e.Deliver(dst, d)
	}
}
func (e *mockExec) TracksData() bool         { return e.tracks }
func (e *mockExec) Obs() obs.Recorder        { return e.obs }
func (e *mockExec) Fence()                   {}
func (e *mockExec) Activate()                {}
func (e *mockExec) Deactivate()              {}
func (e *mockExec) Tracer() *trace.Collector { return &e.tr }

func TestDiamondGraphSingleRank(t *testing.T) {
	c := newMockCluster(1, true)
	g := c.graphs[0]
	in := NewEdge("in")
	ab := NewEdge("ab")
	ac := NewEdge("ac")
	bd := NewEdge("bd")
	cd := NewEdge("cd")
	var result int
	g.AddTT(TTSpec{
		Name:   "A",
		Inputs: []InputSpec{{Edge: in}},
		Outputs: []OutputSpec{
			{Edge: ab}, {Edge: ac},
		},
		Body: func(ctx *TaskContext) {
			v := ctx.Input(0).(int)
			ctx.SendEdge(ab, ctx.Key(), v+1, SendCopy)
			ctx.SendEdge(ac, ctx.Key(), v+2, SendCopy)
		},
	})
	g.AddTT(TTSpec{
		Name:    "B",
		Inputs:  []InputSpec{{Edge: ab}},
		Outputs: []OutputSpec{{Edge: bd}},
		Body: func(ctx *TaskContext) {
			ctx.SendEdge(bd, ctx.Key(), ctx.Input(0).(int)*10, SendCopy)
		},
	})
	g.AddTT(TTSpec{
		Name:    "C",
		Inputs:  []InputSpec{{Edge: ac}},
		Outputs: []OutputSpec{{Edge: cd}},
		Body: func(ctx *TaskContext) {
			ctx.SendEdge(cd, ctx.Key(), ctx.Input(0).(int)*100, SendCopy)
		},
	})
	g.AddTT(TTSpec{
		Name:   "D",
		Inputs: []InputSpec{{Edge: bd}, {Edge: cd}},
		Body: func(ctx *TaskContext) {
			result = ctx.Input(0).(int) + ctx.Input(1).(int)
		},
	})
	g.Seal()
	g.Seed(in, serde.Int1{0}, 5)
	// (5+1)*10 + (5+2)*100 = 60 + 700
	if result != 760 {
		t.Fatalf("diamond result = %d, want 760", result)
	}
	if n := c.execs[0].tr.TasksExecuted.Load(); n != 4 {
		t.Fatalf("executed %d tasks, want 4", n)
	}
}

func TestKeyTypeChangesAcrossTTs(t *testing.T) {
	// TRSM-style: a TT keyed by Int2 producing work for Int3-keyed tasks.
	c := newMockCluster(1, true)
	g := c.graphs[0]
	in := NewEdge("in")
	out := NewEdge("out")
	got := map[serde.Int3]float64{}
	g.AddTT(TTSpec{
		Name:    "TRSM",
		Inputs:  []InputSpec{{Edge: in}},
		Outputs: []OutputSpec{{Edge: out}},
		Body: func(ctx *TaskContext) {
			id := ctx.Key().Value().(serde.Int2)
			keys := []Key{
				KeyOf(serde.Int3{id[0], id[1], 0}),
				KeyOf(serde.Int3{id[0], id[1], 1}),
			}
			ctx.BroadcastEdge(out, keys, ctx.Input(0).(float64)*2, SendCopy)
		},
	})
	g.AddTT(TTSpec{
		Name:   "GEMM",
		Inputs: []InputSpec{{Edge: out}},
		Body: func(ctx *TaskContext) {
			got[ctx.Key().Value().(serde.Int3)] = ctx.Input(0).(float64)
		},
	})
	g.Seal()
	g.Seed(in, serde.Int2{3, 4}, 1.5)
	if len(got) != 2 || got[serde.Int3{3, 4, 0}] != 3.0 || got[serde.Int3{3, 4, 1}] != 3.0 {
		t.Fatalf("got %v", got)
	}
}

func TestStreamingTerminalFixedSize(t *testing.T) {
	// MRA-compress style: 2^d children accumulate into one parent task.
	c := newMockCluster(1, true)
	g := c.graphs[0]
	in := NewEdge("in")
	acc := NewEdge("acc")
	var total float64
	var fired int
	g.AddTT(TTSpec{
		Name:    "child",
		Inputs:  []InputSpec{{Edge: in}},
		Outputs: []OutputSpec{{Edge: acc}},
		Body: func(ctx *TaskContext) {
			ctx.SendEdge(acc, KeyOf(serde.Int1{0}), ctx.Input(0).(float64), SendCopy)
		},
	})
	g.AddTT(TTSpec{
		Name: "compress",
		Inputs: []InputSpec{{
			Edge: acc,
			Reducer: func(a, v any) any {
				if a == nil {
					return v
				}
				return a.(float64) + v.(float64)
			},
			StreamSize: func(Key) int { return 4 },
		}},
		Body: func(ctx *TaskContext) {
			fired++
			total = ctx.Input(0).(float64)
		},
	})
	g.Seal()
	for i := 0; i < 4; i++ {
		g.Seed(in, serde.Int1{i}, float64(i+1))
	}
	if fired != 1 || total != 10 {
		t.Fatalf("fired=%d total=%v, want 1, 10", fired, total)
	}
}

func TestStreamingFinalizeAndSetSize(t *testing.T) {
	c := newMockCluster(1, true)
	g := c.graphs[0]
	in := NewEdge("in")
	str := NewEdge("stream")
	var got []float64
	g.AddTT(TTSpec{
		Name:    "driver",
		Inputs:  []InputSpec{{Edge: in}},
		Outputs: []OutputSpec{{Edge: str}},
		Body: func(ctx *TaskContext) {
			mode := ctx.Input(0).(int)
			if mode == 0 { // finalize after 3 sends
				for i := 0; i < 3; i++ {
					ctx.SendEdge(str, KeyOf(serde.Int1{100}), float64(i+1), SendCopy)
				}
				ctx.FinalizeEdge(str, KeyOf(serde.Int1{100}))
			} else { // set size to 2, then send 2
				ctx.SetStreamSizeEdge(str, KeyOf(serde.Int1{200}), 2)
				ctx.SendEdge(str, KeyOf(serde.Int1{200}), 5.0, SendCopy)
				ctx.SendEdge(str, KeyOf(serde.Int1{200}), 7.0, SendCopy)
			}
		},
	})
	g.AddTT(TTSpec{
		Name: "sink",
		Inputs: []InputSpec{{
			Edge: str,
			Reducer: func(a, v any) any {
				if a == nil {
					return v
				}
				return a.(float64) + v.(float64)
			},
			// No StreamSize: closed by control messages.
		}},
		Body: func(ctx *TaskContext) {
			got = append(got, ctx.Input(0).(float64))
		},
	})
	g.Seal()
	g.Seed(in, serde.Int1{0}, 0)
	g.Seed(in, serde.Int1{1}, 1)
	if len(got) != 2 || got[0] != 6 || got[1] != 12 {
		t.Fatalf("got %v, want [6 12]", got)
	}
}

func TestCopySemantics(t *testing.T) {
	run := func(mode SendMode, tracks bool) (sent, seen []float64, tr trace.Snapshot) {
		c := newMockCluster(1, tracks)
		g := c.graphs[0]
		in := NewEdge("in")
		e := NewEdge("e")
		g.AddTT(TTSpec{
			Name:    "producer",
			Inputs:  []InputSpec{{Edge: in}},
			Outputs: []OutputSpec{{Edge: e}},
			Body: func(ctx *TaskContext) {
				v := []float64{1, 2, 3}
				ctx.SendEdge(e, KeyOf(serde.Int1{1}), v, mode)
				if mode != SendMove {
					v[0] = 99 // mutate after send
					sent = v
				}
			},
		})
		g.AddTT(TTSpec{
			Name:   "consumer",
			Inputs: []InputSpec{{Edge: e}},
			Body: func(ctx *TaskContext) {
				seen = ctx.Input(0).([]float64)
			},
		})
		g.Seal()
		g.Seed(in, serde.Int1{0}, 0)
		tr = c.execs[0].tr.Snapshot()
		return
	}

	// Copy: consumer unaffected by post-send mutation. Note the consumer
	// task runs synchronously inside Send here, but the clone decision is
	// what we check via the trace.
	_, seen, tr := run(SendCopy, true)
	if seen[0] != 1 {
		t.Errorf("copy mode leaked mutation: %v", seen)
	}
	if tr.DataCopies < 1 {
		t.Errorf("copy mode made no copies: %+v", tr)
	}

	// Borrow with a tracking runtime: zero copies.
	_, seen, tr = run(SendBorrow, true)
	if tr.CopiesAvoided < 1 {
		t.Errorf("borrow mode with tracking runtime should avoid copies: %+v", tr)
	}
	// Borrow without tracking (MADNESS model): degrades to copy.
	_, seen, tr = run(SendBorrow, false)
	if tr.DataCopies < 1 || tr.CopiesAvoided != 0 {
		t.Errorf("borrow without tracking should copy: %+v", tr)
	}

	// Move: no copy for single local consumer.
	_, seen, tr = run(SendMove, true)
	if seen[0] != 1 || tr.CopiesAvoided < 1 {
		t.Errorf("move mode: seen=%v trace=%+v", seen, tr)
	}
}

func TestRemoteRoutingByKeymap(t *testing.T) {
	c := newMockCluster(2, true)
	var mu sync.Mutex
	ranOn := map[int][]int{} // key -> rank list
	for r := 0; r < 2; r++ {
		g := c.graphs[r]
		in := NewEdge("in")
		g.AddTT(TTSpec{
			Name:   "work",
			Inputs: []InputSpec{{Edge: in}},
			Owner:  func(k Key) int { return Unpack[serde.Int1](k)[0] % 2 },
			Body: func(ctx *TaskContext) {
				mu.Lock()
				ranOn[ctx.Key().Value().(serde.Int1)[0]] = append(ranOn[ctx.Key().Value().(serde.Int1)[0]], ctx.Rank())
				mu.Unlock()
			},
		})
		g.Seal()
	}
	// Seed everything from rank 0; odd keys must hop to rank 1.
	in0 := c.graphs[0].tts[0].inputs[0].Edge
	for k := 0; k < 6; k++ {
		c.graphs[0].Seed(in0, serde.Int1{k}, float64(k))
	}
	for k := 0; k < 6; k++ {
		if len(ranOn[k]) != 1 || ranOn[k][0] != k%2 {
			t.Fatalf("key %d ran on %v, want rank %d", k, ranOn[k], k%2)
		}
	}
	if c.execs[0].deliveries != 3 {
		t.Fatalf("rank0 sent %d remote deliveries, want 3", c.execs[0].deliveries)
	}
}

func TestBroadcastDedupAcrossRanks(t *testing.T) {
	// One value to 4 task IDs on the same remote rank: one Delivery only.
	c := newMockCluster(2, true)
	var count int
	for r := 0; r < 2; r++ {
		g := c.graphs[r]
		in := NewEdge("in")
		e := NewEdge("e")
		g.AddTT(TTSpec{
			Name:    "src",
			Inputs:  []InputSpec{{Edge: in}},
			Outputs: []OutputSpec{{Edge: e}},
			Owner:   func(Key) int { return 0 },
			Body: func(ctx *TaskContext) {
				keys := []Key{KeyOf(serde.Int1{1}), KeyOf(serde.Int1{3}), KeyOf(serde.Int1{5}), KeyOf(serde.Int1{7})}
				ctx.BroadcastEdge(e, keys, 42.0, SendCopy)
			},
		})
		g.AddTT(TTSpec{
			Name:   "dst",
			Inputs: []InputSpec{{Edge: e}},
			Owner:  func(Key) int { return 1 },
			Body: func(ctx *TaskContext) {
				count++
			},
		})
		g.Seal()
	}
	in0 := c.graphs[0].tts[0].inputs[0].Edge
	c.graphs[0].Seed(in0, serde.Int1{0}, 0.0)
	if count != 4 {
		t.Fatalf("broadcast reached %d tasks, want 4", count)
	}
	if c.execs[0].deliveries != 1 {
		t.Fatalf("broadcast used %d deliveries, want 1 (deduplicated)", c.execs[0].deliveries)
	}
}

func TestDoubleDeliveryPanics(t *testing.T) {
	c := newMockCluster(1, true)
	g := c.graphs[0]
	in := NewEdge("in")
	g.AddTT(TTSpec{
		Name:   "sink",
		Inputs: []InputSpec{{Edge: in}},
		Body:   func(ctx *TaskContext) { t.Fatal("must not fire with one of two inputs") },
	})
	// Second TT so the sink never completes: give sink two terminals.
	c2 := newMockCluster(1, true)
	g2 := c2.graphs[0]
	inA := NewEdge("a")
	inB := NewEdge("b")
	g2.AddTT(TTSpec{
		Name:   "sink2",
		Inputs: []InputSpec{{Edge: inA}, {Edge: inB}},
		Body:   func(ctx *TaskContext) {},
	})
	g2.Seal()
	g2.Seed(inA, serde.Int1{0}, 1.0)
	defer func() {
		if recover() == nil {
			t.Fatal("second delivery to non-streaming terminal did not panic")
		}
	}()
	g2.Seed(inA, serde.Int1{0}, 2.0)
	_ = g
	_ = in
}

func TestZeroStreamSizeSatisfiedImmediately(t *testing.T) {
	c := newMockCluster(1, true)
	g := c.graphs[0]
	trig := NewEdge("trig")
	str := NewEdge("str")
	fired := false
	g.AddTT(TTSpec{
		Name: "sink",
		Inputs: []InputSpec{
			{Edge: trig},
			{Edge: str, Reducer: func(a, v any) any { return v }, StreamSize: func(Key) int { return 0 }},
		},
		Body: func(ctx *TaskContext) {
			fired = true
			if ctx.Input(1) != nil {
				t.Errorf("zero-length stream should yield nil input")
			}
		},
	})
	g.Seal()
	g.Seed(trig, serde.Int1{0}, 1.0)
	if !fired {
		t.Fatal("task with zero-size stream never fired")
	}
}

func TestHashKeyDeterministic(t *testing.T) {
	a := HashKey(KeyOf(serde.Int3{1, 2, 3}))
	b := HashKey(KeyOf(serde.Int3{1, 2, 3}))
	if a != b || a < 0 {
		t.Fatalf("HashKey not deterministic or negative: %d %d", a, b)
	}
	if HashKey(KeyOf(serde.Int3{1, 2, 3})) == HashKey(KeyOf(serde.Int3{3, 2, 1})) {
		t.Log("hash collision on permuted key (allowed but suspicious)")
	}
}

func TestPriorityAndOwnerExposed(t *testing.T) {
	c := newMockCluster(4, true)
	g := c.graphs[0]
	in := NewEdge("in")
	tt := g.AddTT(TTSpec{
		Name:    "p",
		Inputs:  []InputSpec{{Edge: in}},
		Owner:   func(k Key) int { return Unpack[serde.Int1](k)[0] % 4 },
		Priomap: func(k Key) int64 { return int64(100 - Unpack[serde.Int1](k)[0]) },
		Body:    func(ctx *TaskContext) {},
	})
	k7 := KeyOf(serde.Int1{7})
	if tt.Owner(k7) != 3 {
		t.Errorf("owner = %d", tt.Owner(k7))
	}
	if tt.Priority(k7) != 93 {
		t.Errorf("priority = %d", tt.Priority(k7))
	}
}

func TestWireHeaderRoundTrip(t *testing.T) {
	d := Delivery{
		Targets: []TermTarget{
			{TT: 3, Term: 1, Keys: []Key{KeyOf(serde.Int2{1, 2}), KeyOf(serde.Int2{3, 4})}},
			{TT: 0, Term: 0, Keys: []Key{KeyOf(serde.Int1{9})}},
		},
		Control: CtrlSetSize,
		N:       17,
		Mode:    SendMove,
	}
	b := serde.NewBuffer(64)
	EncodeHeader(b, d)
	got := DecodeHeader(serde.FromBytes(b.Bytes()))
	if got.Control != CtrlSetSize || got.N != 17 || len(got.Targets) != 2 {
		t.Fatalf("header round trip: %+v", got)
	}
	if got.Mode != SendMove {
		t.Fatalf("send mode lost in header: %+v", got)
	}
	if got.Targets[0].Keys[1] != KeyOf(serde.Int2{3, 4}) {
		t.Fatalf("keys corrupted: %+v", got.Targets[0])
	}
	// A reduction partial carries its folded contribution count.
	rd := Delivery{Targets: d.Targets[:1], Control: CtrlReduce, N: 5, Mode: SendMove}
	rb := serde.NewBuffer(64)
	EncodeHeader(rb, rd)
	rgot := DecodeHeader(serde.FromBytes(rb.Bytes()))
	if rgot.Control != CtrlReduce || rgot.N != 5 {
		t.Fatalf("CtrlReduce round trip: %+v", rgot)
	}
	// All control kinds and modes survive the packed first byte.
	for _, ctl := range []ControlKind{CtrlNone, CtrlFinalize, CtrlSetSize, CtrlReduce} {
		for _, m := range []SendMode{SendCopy, SendBorrow, SendMove} {
			b := serde.NewBuffer(64)
			EncodeHeader(b, Delivery{Targets: d.Targets[:1], Control: ctl, N: 1, Mode: m})
			got := DecodeHeader(serde.FromBytes(b.Bytes()))
			if got.Control != ctl || got.Mode != m {
				t.Fatalf("packed byte round trip: ctl=%v mode=%v got %+v", ctl, m, got)
			}
		}
	}
}

// countingExec counts units of pending work as a backend's termination
// detector does.
type countingExec struct {
	*mockExec
	active atomic.Int64
}

func (e *countingExec) Activate()   { e.active.Add(1) }
func (e *countingExec) Deactivate() { e.active.Add(-1) }

// TestPanickedTaskStaysActive checks that a task whose body panics is not
// retired: a fence must not see quiescence while the panic is on its way
// to the backend's crash handler.
func TestPanickedTaskStaysActive(t *testing.T) {
	ex := &countingExec{mockExec: &mockExec{size: 1}}
	g := NewGraph(ex)
	tt := g.AddTT(TTSpec{
		Name:   "P",
		Inputs: []InputSpec{{Edge: NewEdge("in")}},
		Body: func(ctx *TaskContext) {
			if ctx.Input(0).(bool) {
				panic("deliberate")
			}
		},
	})
	g.Seal()
	tt.Invoke(KeyOf(0), false)
	if n := ex.active.Load(); n != 0 {
		t.Fatalf("%d units active after a task returned", n)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the body's panic did not propagate")
			}
		}()
		tt.Invoke(KeyOf(1), true)
	}()
	if n := ex.active.Load(); n != 1 {
		t.Fatalf("%d units active after a task panicked, want 1", n)
	}
}
