package core

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/serde"
)

// relVal is a pool.Releasable test value; Release flips a flag instead of
// returning buffers.
type relVal struct {
	data     []float64
	released atomic.Bool
}

func (r *relVal) Release() { r.released.Store(true) }

func sameBacking(a, b []float64) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestReadOnlyFanoutShares checks the headline tentpole behavior: one send
// fanning out to several read-only consumers travels as one refcounted
// value, zero clones.
func TestReadOnlyFanoutShares(t *testing.T) {
	c := newMockCluster(1, true)
	g := c.graphs[0]
	in := NewEdge("in")
	e := NewEdge("e")
	var seen [][]float64
	g.AddTT(TTSpec{
		Name:    "producer",
		Inputs:  []InputSpec{{Edge: in}},
		Outputs: []OutputSpec{{Edge: e}},
		Body: func(ctx *TaskContext) {
			ctx.BroadcastEdge(e, int1Keys(3), []float64{4, 5, 6}, SendCopy)
		},
	})
	g.AddTT(TTSpec{
		Name:   "reader",
		Inputs: []InputSpec{{Edge: e, Access: ReadOnly}},
		Body: func(ctx *TaskContext) {
			seen = append(seen, ctx.Input(0).([]float64))
		},
	})
	g.Seal()
	g.SeedMode(in, serde.Int1{0}, 0, SendMove)

	if len(seen) != 3 {
		t.Fatalf("ran %d readers, want 3", len(seen))
	}
	if !sameBacking(seen[0], seen[1]) || !sameBacking(seen[1], seen[2]) {
		t.Errorf("read-only consumers did not share one value")
	}
	tr := c.execs[0].tr.Snapshot()
	if tr.DataCopies != 0 {
		t.Errorf("read-only fan-out made %d copies, want 0", tr.DataCopies)
	}
	if tr.CopiesAvoided < 3 {
		t.Errorf("copies avoided = %d, want >= 3", tr.CopiesAvoided)
	}
}

// TestCopyOnWriteLazyClone checks that a ReadWrite consumer clones only
// when other references are live, and that the last consumer takes the
// value in place.
func TestCopyOnWriteLazyClone(t *testing.T) {
	c := newMockCluster(1, true)
	g := c.graphs[0]
	in := NewEdge("in")
	e := NewEdge("e")
	var sent []float64
	var seen [][]float64
	g.AddTT(TTSpec{
		Name:    "producer",
		Inputs:  []InputSpec{{Edge: in}},
		Outputs: []OutputSpec{{Edge: e}},
		Body: func(ctx *TaskContext) {
			sent = []float64{1, 2, 3}
			ctx.BroadcastEdge(e, int1Keys(2), sent, SendCopy)
		},
	})
	g.AddTT(TTSpec{
		Name:   "writer",
		Inputs: []InputSpec{{Edge: e, Access: ReadWrite}},
		Body: func(ctx *TaskContext) {
			v := ctx.Input(0).([]float64)
			v[0] = 99 // exclusive by contract
			seen = append(seen, v)
		},
	})
	g.Seal()
	g.SeedMode(in, serde.Int1{0}, 0, SendMove)

	if len(seen) != 2 {
		t.Fatalf("ran %d writers, want 2", len(seen))
	}
	// The first writer ran while the second still referenced the value, so
	// it got a lazy clone; the last writer took the original in place.
	if sameBacking(seen[0], sent) {
		t.Errorf("first writer mutated the shared value")
	}
	if !sameBacking(seen[1], sent) {
		t.Errorf("last writer did not take the value in place")
	}
	tr := c.execs[0].tr.Snapshot()
	if tr.DataCopies != 1 {
		t.Errorf("copy-on-write made %d copies, want exactly 1", tr.DataCopies)
	}
}

// TestTrackedReclaim unit-tests the handle lifecycle: the last drop of a
// runtime-owned value releases pooled payloads, unless the value escaped.
func TestTrackedReclaim(t *testing.T) {
	v := &relVal{data: []float64{1}}
	h := newTracked(v, 2, true)
	h.drop()
	if v.released.Load() {
		t.Fatal("released while a reference was live")
	}
	h.drop()
	if !v.released.Load() {
		t.Fatal("last drop did not release the pooled value")
	}

	v2 := &relVal{data: []float64{1}}
	h2 := newTracked(v2, 1, true)
	h2.escaped.Store(true)
	h2.drop()
	if v2.released.Load() {
		t.Fatal("escaped value was reclaimed")
	}

	v3 := &relVal{data: []float64{1}}
	h3 := newTracked(v3, 1, false) // not runtime-owned (e.g. sender kept a ref)
	h3.drop()
	if v3.released.Load() {
		t.Fatal("non-owned value was reclaimed")
	}
}

// TestInjectExclusiveReclaim drives the remote-arrival path: a deserialized
// delivery is exclusive, so after the last read-only consumer finishes the
// value's buffers are reclaimed — unless a body Retains it.
func TestInjectExclusiveReclaim(t *testing.T) {
	run := func(retain bool) *relVal {
		c := newMockCluster(1, true)
		g := c.graphs[0]
		e := NewEdge("e")
		g.AddTT(TTSpec{
			Name:   "reader",
			Inputs: []InputSpec{{Edge: e, Access: ReadOnly}},
			Body: func(ctx *TaskContext) {
				if retain {
					ctx.Retain(ctx.Input(0))
				}
			},
		})
		g.Seal()
		v := &relVal{data: []float64{7}}
		g.Inject(Delivery{
			Targets:   []TermTarget{{TT: 0, Term: 0, Keys: []Key{KeyOf(serde.Int1{1}), KeyOf(serde.Int1{2})}}},
			Value:     v,
			Exclusive: true,
		})
		return v
	}
	if v := run(false); !v.released.Load() {
		t.Errorf("exclusive value not reclaimed after last consumer")
	}
	if v := run(true); v.released.Load() {
		t.Errorf("Retained value was reclaimed")
	}
}

// TestMoveModeSurvivesRemoteDelivery sends Move across the mock wire to two
// default-access consumers on another rank. Only if the mode survives
// encode/decode does the receiver build a shared handle, whose last
// consumer takes the value in place (a counted avoided copy).
func TestMoveModeSurvivesRemoteDelivery(t *testing.T) {
	c := newMockCluster(2, true)
	var mu sync.Mutex
	ran := 0
	for r := 0; r < 2; r++ {
		g := c.graphs[r]
		in := NewEdge("in")
		e := NewEdge("e")
		g.AddTT(TTSpec{
			Name:    "producer",
			Inputs:  []InputSpec{{Edge: in}},
			Outputs: []OutputSpec{{Edge: e}},
			Body: func(ctx *TaskContext) {
				ctx.BroadcastEdge(e, int1Keys(2), []float64{1, 2}, SendMove)
			},
			Owner: func(Key) int { return 0 },
		})
		g.AddTT(TTSpec{
			Name:   "consumer",
			Inputs: []InputSpec{{Edge: e}}, // AccessDefault: handle exists only under Move
			Body: func(ctx *TaskContext) {
				mu.Lock()
				ran++
				mu.Unlock()
			},
			Owner: func(Key) int { return 1 },
		})
		g.Seal()
	}
	in0 := c.graphs[0].tts[0].inputs[0].Edge
	c.graphs[0].SeedMode(in0, serde.Int1{0}, 0, SendMove)
	if ran != 2 {
		t.Fatalf("ran %d consumers on rank 1, want 2", ran)
	}
	tr := c.execs[1].tr.Snapshot()
	if tr.CopiesAvoided < 1 {
		t.Errorf("move mode lost across the wire: rank-1 avoided=%d copies=%d",
			tr.CopiesAvoided, tr.DataCopies)
	}
	if tr.DataCopies != 1 {
		t.Errorf("rank-1 copies = %d, want exactly 1 (CoW for the first default-access consumer)",
			tr.DataCopies)
	}
}

// TestBorrowSharesWithReadOnlyConsumer checks SendBorrow under a tracking
// runtime: read-only consumers share the sender's value, ReadWrite
// consumers get their own clone (the sender keeps ownership).
func TestBorrowSharesWithReadOnlyConsumer(t *testing.T) {
	c := newMockCluster(1, true)
	g := c.graphs[0]
	in := NewEdge("in")
	ro := NewEdge("ro")
	rw := NewEdge("rw")
	var sent, roSeen, rwSeen []float64
	g.AddTT(TTSpec{
		Name:    "producer",
		Inputs:  []InputSpec{{Edge: in}},
		Outputs: []OutputSpec{{Edge: ro}, {Edge: rw}},
		Body: func(ctx *TaskContext) {
			sent = []float64{1, 2}
			ctx.SendEdge(ro, KeyOf(serde.Int1{1}), sent, SendBorrow)
			ctx.SendEdge(rw, KeyOf(serde.Int1{1}), sent, SendBorrow)
		},
	})
	g.AddTT(TTSpec{
		Name:   "reader",
		Inputs: []InputSpec{{Edge: ro, Access: ReadOnly}},
		Body:   func(ctx *TaskContext) { roSeen = ctx.Input(0).([]float64) },
	})
	g.AddTT(TTSpec{
		Name:   "writer",
		Inputs: []InputSpec{{Edge: rw, Access: ReadWrite}},
		Body: func(ctx *TaskContext) {
			rwSeen = ctx.Input(0).([]float64)
			rwSeen[0] = 42
		},
	})
	g.Seal()
	g.SeedMode(in, serde.Int1{0}, 0, SendMove)

	if !sameBacking(roSeen, sent) {
		t.Errorf("borrowed read-only consumer did not share the sender's value")
	}
	if sameBacking(rwSeen, sent) || sent[0] == 42 {
		t.Errorf("borrowed read-write consumer mutated the sender's value")
	}
}

// TestReadOnlyResendEscapes checks noteSend: a body that forwards its held
// read-only input marks it escaped, so the tracker leaves reclamation to
// the GC even when the value was runtime-owned.
func TestReadOnlyResendEscapes(t *testing.T) {
	c := newMockCluster(1, true)
	g := c.graphs[0]
	e := NewEdge("e")
	f := NewEdge("f")
	g.AddTT(TTSpec{
		Name:    "forwarder",
		Inputs:  []InputSpec{{Edge: e, Access: ReadOnly}},
		Outputs: []OutputSpec{{Edge: f}},
		Body: func(ctx *TaskContext) {
			ctx.SendEdge(f, KeyOf(serde.Int1{9}), ctx.Input(0), SendMove)
		},
	})
	g.AddTT(TTSpec{
		Name:   "sink",
		Inputs: []InputSpec{{Edge: f}},
		Body:   func(ctx *TaskContext) {},
	})
	g.Seal()
	v := &relVal{data: []float64{3}}
	g.Inject(Delivery{
		Targets:   []TermTarget{{TT: 0, Term: 0, Keys: []Key{KeyOf(serde.Int1{1}), KeyOf(serde.Int1{2})}}},
		Value:     v,
		Exclusive: true,
	})
	if v.released.Load() {
		t.Errorf("re-sent read-only value was reclaimed under the forward")
	}
}

// TestTrackedRace exercises concurrent materialize/drop on one handle from
// many goroutines; run with -race.
func TestTrackedRace(t *testing.T) {
	const n = 32
	v := &relVal{data: []float64{1, 2, 3}}
	h := newTracked(v, n, true)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				// Reader: share then drop, like a read-only hold.
				_ = h.value
				h.drop()
			} else if h.refs.CompareAndSwap(1, 0) {
				// Writer that won exclusivity: takes in place, no drop.
			} else {
				h.drop()
			}
		}(i)
	}
	wg.Wait()
}

// poolVal is a pooled-payload test value with a real deep copy: its codec
// logs every clone in the family its original started, and Release counts
// and poisons the payload instead of returning it to a pool, so a reader
// overlapping a release sees NaNs (and trips -race).
type poolVal struct {
	data     []float64
	releases atomic.Int32
	family   *poolFamily
}

type poolFamily struct {
	mu     sync.Mutex
	clones []*poolVal
}

func newPoolVal(data ...float64) *poolVal {
	return &poolVal{data: data, family: &poolFamily{}}
}

func (v *poolVal) Release() {
	v.releases.Add(1)
	for i := range v.data {
		v.data[i] = math.NaN()
	}
}

// podVal is a pointer-free (shareable) value that claims to be pooled:
// Clone passes it through, so the runtime must never release it.
type podVal struct{ x int }

func (podVal) Release() { panic("released a value Clone passed through") }

func init() {
	serde.Register(serde.FuncCodec[*poolVal]{
		Enc:  func(b *serde.Buffer, v *poolVal) { b.PutF64s(v.data) },
		Dec:  func(b *serde.Buffer) *poolVal { return newPoolVal(b.F64s()...) },
		Size: func(v *poolVal) int { return 8 * (len(v.data) + 1) },
		Copy: func(v *poolVal) *poolVal {
			c := &poolVal{data: append([]float64(nil), v.data...), family: v.family}
			v.family.mu.Lock()
			v.family.clones = append(v.family.clones, c)
			v.family.mu.Unlock()
			return c
		},
	})
	serde.Register(serde.FuncCodec[podVal]{
		Enc:  func(b *serde.Buffer, v podVal) { b.PutVarint(int64(v.x)) },
		Dec:  func(b *serde.Buffer) podVal { return podVal{int(b.Varint())} },
		Size: func(podVal) int { return 8 },
	})
}

// int1Keys returns task IDs 1..n.
func int1Keys(n int) []Key {
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = KeyOf(serde.Int1{i + 1})
	}
	return keys
}

// TestUntrackedReadOnlyCloneIsReclaimed pins the ownership rule on a
// runtime that shares nothing: every read-only consumer still gets its own
// deep copy, taken when the producer sends, and each copy goes back to its
// pool exactly once, when that consumer's body has returned.
func TestUntrackedReadOnlyCloneIsReclaimed(t *testing.T) {
	const k = 5
	live := LiveTrackedHandles() // process-wide gauge: other tests leave their mark
	for _, mode := range []SendMode{SendBorrow, SendCopy} {
		c := newMockCluster(1, false)
		g := c.graphs[0]
		in, e := NewEdge("in"), NewEdge("e")
		orig := newPoolVal(1, 2, 3)
		bodies := 0
		g.AddTT(TTSpec{
			Name:    "producer",
			Inputs:  []InputSpec{{Edge: in}},
			Outputs: []OutputSpec{{Edge: e}},
			Body:    func(ctx *TaskContext) { ctx.BroadcastEdge(e, int1Keys(k), orig, mode) },
		})
		g.AddTT(TTSpec{
			Name:   "reader",
			Inputs: []InputSpec{{Edge: e, Access: ReadOnly}},
			Body: func(ctx *TaskContext) {
				v := ctx.Input(0).(*poolVal)
				bodies++
				if v == orig {
					t.Errorf("mode %d: reader got the sender's object, not a copy", mode)
				}
				if v.releases.Load() != 0 || v.data[0] != 1 {
					t.Errorf("mode %d: copy released before its body returned", mode)
				}
			},
		})
		g.Seal()
		g.SeedMode(in, serde.Int1{0}, 0, SendMove)

		if bodies != k || len(orig.family.clones) != k {
			t.Fatalf("mode %d: %d bodies over %d clones, want %d each", mode, bodies, len(orig.family.clones), k)
		}
		for i, cl := range orig.family.clones {
			if n := cl.releases.Load(); n != 1 {
				t.Errorf("mode %d: clone %d released %d times, want once", mode, i, n)
			}
		}
		if orig.releases.Load() != 0 {
			t.Errorf("mode %d: the sender's original was released", mode)
		}
		// The model's counts are the parent's: k copies made, and the only
		// copy avoided is the seed's move into the producer.
		tr := c.execs[0].tr.Snapshot()
		if tr.DataCopies != k || tr.CopiesAvoided != 1 {
			t.Errorf("mode %d: copies=%d avoided=%d, want %d and 1", mode, tr.DataCopies, tr.CopiesAvoided, k)
		}
		if n := LiveTrackedHandles() - live; n != 0 {
			t.Errorf("mode %d: %d tracked handles live after the run", mode, n)
		}
	}

	// The arrival path: one decoded object for three task IDs. The first
	// takes the object itself, the other two get reclaimed copies.
	c := newMockCluster(1, false)
	g := c.graphs[0]
	e := NewEdge("e")
	g.AddTT(TTSpec{
		Name:   "reader",
		Inputs: []InputSpec{{Edge: e, Access: ReadOnly}},
		Body:   func(ctx *TaskContext) {},
	})
	g.Seal()
	v := newPoolVal(7)
	g.Inject(Delivery{
		Targets:   []TermTarget{{TT: 0, Term: 0, Keys: int1Keys(3)}},
		Value:     v,
		Exclusive: true,
	})
	if len(v.family.clones) != 2 {
		t.Fatalf("inject: %d clones, want 2", len(v.family.clones))
	}
	for i, cl := range v.family.clones {
		if n := cl.releases.Load(); n != 1 {
			t.Errorf("inject: clone %d released %d times, want once", i, n)
		}
	}
	if tr := c.execs[0].tr.Snapshot(); tr.DataCopies != 2 || tr.CopiesAvoided != 0 {
		t.Errorf("inject: copies=%d avoided=%d, want 2 and 0", tr.DataCopies, tr.CopiesAvoided)
	}
	if n := LiveTrackedHandles() - live; n != 0 {
		t.Errorf("inject: %d tracked handles live after the run", n)
	}
}

// TestUntrackedCloneEscapes is TestReadOnlyResendEscapes' twin for copies
// the runtime made: a body that Retains its copy, or forwards it with
// Move, keeps it; consumers that never promised to only read (default
// access, reducers) get raw copies the runtime never touches again; and a
// value Clone passes through is never taken for a copy.
func TestUntrackedCloneEscapes(t *testing.T) {
	live := LiveTrackedHandles()
	c := newMockCluster(1, false)
	g := c.graphs[0]
	in, e, f := NewEdge("in"), NewEdge("e"), NewEdge("f")
	orig := newPoolVal(1, 2)
	var forwarded *poolVal
	g.AddTT(TTSpec{
		Name:    "producer",
		Inputs:  []InputSpec{{Edge: in}},
		Outputs: []OutputSpec{{Edge: e}},
		Body:    func(ctx *TaskContext) { ctx.BroadcastEdge(e, int1Keys(2), orig, SendBorrow) },
	})
	g.AddTT(TTSpec{
		Name:   "keeper",
		Inputs: []InputSpec{{Edge: e, Access: ReadOnly}},
		Body:   func(ctx *TaskContext) { ctx.Retain(ctx.Input(0)) },
	})
	g.AddTT(TTSpec{
		Name:    "forwarder",
		Inputs:  []InputSpec{{Edge: e, Access: ReadOnly}},
		Outputs: []OutputSpec{{Edge: f}},
		Body: func(ctx *TaskContext) {
			if ctx.Key() == KeyOf(serde.Int1{1}) {
				ctx.SendEdge(f, KeyOf(serde.Int1{9}), ctx.Input(0), SendMove)
			}
		},
	})
	g.AddTT(TTSpec{
		Name:   "sink",
		Inputs: []InputSpec{{Edge: f}},
		Body:   func(ctx *TaskContext) { forwarded = ctx.Input(0).(*poolVal) },
	})
	g.AddTT(TTSpec{Name: "legacy", Inputs: []InputSpec{{Edge: e}}, Body: func(ctx *TaskContext) {}})
	g.AddTT(TTSpec{
		Name: "folder",
		Inputs: []InputSpec{{Edge: e, Access: ReadOnly,
			Reducer:    func(acc, v any) any { return v },
			StreamSize: func(Key) int { return 1 }}},
		Body: func(ctx *TaskContext) {},
	})
	g.Seal()
	g.SeedMode(in, serde.Int1{0}, 0, SendMove)

	// Four consumers × two keys; only the forwarder's key-2 copy was
	// neither kept, forwarded, nor handed over raw.
	if len(orig.family.clones) != 8 {
		t.Fatalf("%d clones, want 8", len(orig.family.clones))
	}
	released := 0
	for _, cl := range orig.family.clones {
		released += int(cl.releases.Load())
	}
	if released != 1 {
		t.Errorf("%d copies released, want only the one its reader was done with", released)
	}
	if forwarded == nil || forwarded.releases.Load() != 0 || forwarded.data[0] != 1 {
		t.Errorf("the forwarded copy was reclaimed under the forward")
	}
	if n := LiveTrackedHandles() - live; n != 0 {
		t.Errorf("%d tracked handles live after the run", n)
	}

	ro := &InputSpec{Edge: NewEdge("ro"), Access: ReadOnly}
	tr := &c.execs[0].tr
	copied := tr.BytesCopied.Load()
	for _, v := range []any{7, serde.Int2{1, 2}, podVal{3}} {
		if got := cloneFor(ro, v, tr); got != v {
			t.Errorf("cloneFor(%#v) = %#v: a pass-through must reach the consumer as it is", v, got)
		}
	}
	if n := tr.BytesCopied.Load() - copied; n != 0 {
		t.Errorf("pass-throughs counted %d copied bytes, want 0", n)
	}
	if n := LiveTrackedHandles() - live; n != 0 {
		t.Errorf("a pass-through was wrapped: %d tracked handles live", n)
	}
}

// queueExec runs ready tasks on real worker goroutines (mockExec runs them
// inline in the sender), so copies are read and released concurrently.
type queueExec struct {
	mockExec
	q       chan *Task
	pending sync.WaitGroup
}

func (e *queueExec) Submit(t *Task) { e.q <- t }
func (e *queueExec) SubmitBatch(ts []*Task) {
	for _, t := range ts {
		e.q <- t
	}
}
func (e *queueExec) Activate()   { e.pending.Add(1) }
func (e *queueExec) Deactivate() { e.pending.Done() }
func (e *queueExec) Fence()      { e.pending.Wait() }

// TestUntrackedCloneRace is TestTrackedRace's shape for per-consumer
// copies: two workers read, retain and release the copies of one value
// while the producer keeps sending and then scribbles on its original.
// Run with -race.
func TestUntrackedCloneRace(t *testing.T) {
	const workers, rounds, k = 2, 8, 32
	live := LiveTrackedHandles()
	ex := &queueExec{mockExec: mockExec{size: 1}, q: make(chan *Task, rounds*(k+1))}
	g := NewGraph(ex)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for t := range ex.q {
				t.Execute(w)
			}
		}(w)
	}
	in, e := NewEdge("in"), NewEdge("e")
	var bad atomic.Int32
	g.AddTT(TTSpec{
		Name:    "producer",
		Inputs:  []InputSpec{{Edge: in}},
		Outputs: []OutputSpec{{Edge: e}},
		Body: func(ctx *TaskContext) {
			r := ctx.Key().Value().(serde.Int1)[0]
			v := newPoolVal(1, 2, 3, 4)
			keys := make([]Key, k)
			for i := range keys {
				keys[i] = KeyOf(serde.Int2{r, i})
			}
			ctx.BroadcastEdge(e, keys, v, SendBorrow)
			v.data[0] = -1 // the copies were taken at the send
		},
	})
	g.AddTT(TTSpec{
		Name:   "reader",
		Inputs: []InputSpec{{Edge: e, Access: ReadOnly}},
		Body: func(ctx *TaskContext) {
			v := ctx.Input(0).(*poolVal)
			if ctx.Key().Value().(serde.Int2)[1]%4 == 0 {
				ctx.Retain(v)
			}
			if v.data[0]+v.data[1]+v.data[2]+v.data[3] != 10 {
				bad.Add(1)
			}
		},
	})
	g.Seal()
	for r := 0; r < rounds; r++ {
		g.Seed(in, serde.Int1{r}, 0)
	}
	g.Fence()
	close(ex.q)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Errorf("%d readers saw a copy that was released or shared under them", n)
	}
	if n := LiveTrackedHandles() - live; n != 0 {
		t.Errorf("%d tracked handles live after the fence", n)
	}
}

// TestRouteEdgesFanoutAllocs pins the bookkeeping cost of a send: what a
// broadcast allocates does not depend on how many consumers it reaches,
// and the one-key send did not pay for that (routeEdges' stack buffer
// escaping to the heap is the failure the second half catches).
func TestRouteEdgesFanoutAllocs(t *testing.T) {
	// Under the race detector sync.Pool drops a quarter of what is Put, so
	// recycled bookkeeping is reallocated at random; a pool that loses
	// several of 64 round trips (a P migration loses at most one) is that.
	var p sync.Pool
	lost := 0
	for range 64 {
		p.Put(new(int))
		if p.Get() == nil {
			lost++
		}
	}
	if lost > 3 {
		t.Skip("sync.Pool is lossy here (race detector): allocation counts are not stable")
	}
	sendAllocs := func(n int) float64 {
		c := newMockCluster(1, true)
		g := c.graphs[0]
		in, e := NewEdge("in"), NewEdge("e")
		keys := int1Keys(n)
		var value any = []float64{1, 2, 3}
		g.AddTT(TTSpec{
			Name:    "producer",
			Inputs:  []InputSpec{{Edge: in}},
			Outputs: []OutputSpec{{Edge: e}},
			Body:    func(ctx *TaskContext) { ctx.BroadcastEdge(e, keys, value, SendCopy) },
		})
		g.AddTT(TTSpec{
			Name:   "reader",
			Inputs: []InputSpec{{Edge: e, Access: ReadOnly}},
			Body:   func(ctx *TaskContext) {},
		})
		g.Seal()
		var seed any = serde.Int1{0}
		return testing.AllocsPerRun(50, func() { g.SeedMode(in, seed, 0, SendMove) })
	}
	one, narrow, wide := sendAllocs(1), sendAllocs(8), sendAllocs(64)
	if wide != narrow {
		t.Errorf("a 64-consumer broadcast allocates %v times, an 8-consumer one %v: bookkeeping grows with the fan-out", wide, narrow)
	}
	// One shared handle for the read-only consumers; the seed, the
	// producer's send and both tasks run on recycled shells and the stack.
	if one != 1 {
		t.Errorf("a one-key send allocates %v times, want 1 (the shared handle)", one)
	}
}
