// Package core implements the Template Task Graph engine: template tasks
// with ordered sets of typed input and output terminals connected by edges,
// message routing, task instantiation, streaming terminals with input
// reducers, priority and process maps, and copy semantics. It is the
// untyped engine underneath the public ttg package; execution and
// communication are delegated to a backend through the Executor interface,
// exactly as the paper's C++ TTG layers over PaRSEC and MADNESS.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serde"
	"repro/internal/trace"
)

// SendMode selects the data-passing semantics of a send, mirroring the
// paper's argument-passing conventions (§II-A, Listing 2).
type SendMode uint8

const (
	// SendCopy (the default) deep-copies the data for every consumer so
	// the sender may keep mutating its copy.
	SendCopy SendMode = iota
	// SendBorrow passes by const reference: read-only consumers share the
	// sender's object when the runtime tracks its lifetime (PaRSEC model);
	// the MADNESS model copies per consumer as under SendCopy. Either way a
	// copy the runtime makes for a read-only consumer goes back to its pool
	// when that consumer's body returns (data.go).
	SendBorrow
	// SendMove transfers ownership (the std::move convention): the first
	// local consumer receives the object itself; the sender must not touch
	// it afterwards.
	SendMove
)

// ControlKind distinguishes data deliveries from stream-control deliveries.
type ControlKind uint8

const (
	// CtrlNone marks an ordinary data delivery.
	CtrlNone ControlKind = iota
	// CtrlFinalize closes a streaming terminal for a key.
	CtrlFinalize
	// CtrlSetSize sets the expected stream length for a key.
	CtrlSetSize
	// CtrlReduce carries a partial accumulator up the reduce tree: Value
	// is the sender's folded partial and N the number of contributions it
	// represents (see reduce.go). Receivers fold it into their own
	// combiner slot rather than landing it on the match table directly.
	CtrlReduce
)

// TermTarget names input-terminal instances (one terminal, several task
// IDs) on a destination rank.
type TermTarget struct {
	TT   int
	Term int
	Keys []Key
}

// Delivery is the routing unit exchanged between core and backends: a value
// (or a stream-control action) destined for one or more terminal instances
// on a single rank.
type Delivery struct {
	Targets []TermTarget
	Value   any
	Control ControlKind
	N       int // CtrlSetSize payload
	// Mode records the sender's data-passing semantics. Transports that
	// defer reading the value (a modelled splitmd fetch) must snapshot it
	// first under SendCopy, because the sender may keep mutating.
	Mode SendMode
	// Exclusive marks Value as runtime-owned: no other holder exists, so
	// the data tracker may return pooled payloads to their pool once the
	// last consumer is done. Not wire-encoded — set by receiving
	// transports after deserialization (a freshly decoded object is by
	// construction exclusive). The sim backend passes objects across
	// virtual ranks by reference and leaves it false.
	Exclusive bool
	// Flow is the causal span id linking this delivery to the sending task
	// across the rank boundary (Chrome flow events). Zero means untraced;
	// nonzero ids are unique per remote delivery and ride the wire header
	// behind a flag bit, so untraced runs pay no wire bytes.
	Flow uint64
	// Codec is the devirtualized codec for Value's type, resolved once per
	// edge so steady-state sends skip the registry map lookup. Not
	// wire-encoded; may be nil or — an edge can in principle carry mixed
	// types — stale: PlanSend revalidates it and hands on the right one.
	Codec *serde.Cached
	// OwnsValue marks Value as exclusively the transport's after this
	// call: a moved value with no local consumers and a single remote
	// destination, so a gather send needs no snapshot. Not wire-encoded.
	OwnsValue bool
}

// Executor is the contract a runtime backend provides to a graph.
type Executor interface {
	// Rank and Size identify this process in the virtual cluster.
	Rank() int
	Size() int
	// Submit schedules a ready task; the backend must eventually call
	// Task.Execute exactly once.
	Submit(t *Task)
	// SubmitBatch schedules a run of tasks that became ready together (a
	// fan-out); backends should enqueue them under one synchronization.
	// Each task must still be executed exactly once. ts is the caller's
	// scratch: it must not be kept once SubmitBatch returns.
	SubmitBatch(ts []*Task)
	// Deliver transmits d to dest, never the local rank: core lands local
	// values itself, and the engine panics on a self-addressed delivery.
	Deliver(dest int, d Delivery)
	// Broadcast transmits one value to targets on several ranks; backends
	// may forward along a tree. Every Delivery carries the same Value.
	Broadcast(dests map[int]Delivery)
	// TracksData reports whether read-only consumers of one send share a
	// single copy (PaRSEC-model: true) or each get their own. It decides
	// sharing only, not whether runtime-owned copies are reclaimed.
	TracksData() bool
	// Fence blocks until global quiescence (collective).
	Fence()
	// Activate/Deactivate bracket units of pending local work for
	// termination detection.
	Activate()
	Deactivate()
	// Tracer returns this rank's statistics collector.
	Tracer() *trace.Collector
	// Obs returns this rank's observability recorder, or nil when
	// structured tracing is disabled. Callers must nil-check; that one
	// branch is the entire cost of disabled observation.
	Obs() obs.Recorder
}

// Edge is a typed conduit from output terminals to input terminals. An
// edge may feed several input terminals (fan-out) and be fed by several
// output terminals (fan-in).
type Edge struct {
	name      string
	consumers []consumer
	// producers lists the output terminals feeding this edge (filled by
	// AddTT from TTSpec.Outputs); the graph doctor uses it to blame the
	// template that should have produced a missing input.
	producers []consumer
	// codec caches the devirtualized serde lookup for the edge's value
	// type. An edge's type is fixed after its first send in practice, so
	// steady state replaces the RWMutex-guarded registry map hit with one
	// atomic load and a reflect.TypeOf pointer compare.
	codec atomic.Pointer[serde.Cached]
}

// codecFor returns the cached codec for v, resolving and caching it on
// first use (or when the edge's value type changes, which only tests do).
// Panics with *serde.ErrUnregistered for unregistered types.
func (e *Edge) codecFor(v any) *serde.Cached {
	if c := e.codec.Load(); c != nil && c.For(v) {
		return c
	}
	c := serde.LookupCached(v)
	e.codec.Store(c)
	return c
}

type consumer struct {
	tt   *TT
	term int
}

// NewEdge creates an edge; the name is diagnostic only.
func NewEdge(name string) *Edge { return &Edge{name: name} }

// Name returns the edge's diagnostic name.
func (e *Edge) Name() string { return e.name }

// InputSpec describes one input terminal of a template task.
type InputSpec struct {
	// Edge feeding this terminal. Required.
	Edge *Edge
	// Reducer, when non-nil, makes this a streaming terminal: successive
	// messages for the same task ID are folded with Reducer (acc is nil on
	// the first message) instead of each creating a distinct input.
	Reducer func(acc, v any) any
	// StreamSize, when non-nil, gives the expected number of stream
	// messages per task ID; the terminal is satisfied after that many.
	// When nil the stream must be closed by CtrlSetSize or CtrlFinalize.
	StreamSize func(Key) int
	// Commutative declares the Reducer a commutative (and associative)
	// fold, opting the terminal into hierarchical reduction (reduce.go):
	// contributions pre-fold in per-rank combining buffers and climb a
	// binomial tree to the owner instead of each crossing the wire and
	// the match table individually. Because partials park and hop in
	// rank-dependent order, a commutative stream must close by count —
	// StreamSize or SetStreamSize — never a finalize (FinalizeEdge or
	// FinalizeSeed, which would race the in-flight partials and is
	// rejected with a panic).
	Commutative bool
	// Access declares how the task body uses this terminal's value (see
	// AccessMode). Non-default modes opt the terminal into runtime-owned
	// data: values may be shared with other consumers until task start,
	// so the sender must not mutate after sending.
	Access AccessMode
}

// OutputSpec describes one output terminal.
type OutputSpec struct {
	Edge *Edge
}

// TTSpec assembles a template task; see Graph.AddTT.
type TTSpec struct {
	Name    string
	Inputs  []InputSpec
	Outputs []OutputSpec
	// Body is the task body; it may send to output terminals via the
	// TaskContext.
	Body func(ctx *TaskContext)
	// Owner maps a task ID to the rank executing it. Defaults to
	// HashKey(key) mod size.
	Owner func(Key) int
	// Keymap is Owner over the key's application value (Key.Value), for
	// graphs built on core directly. Unpacking boxes the value on every
	// call, so the typed ttg layer sets Owner instead. Set at most one.
	Keymap func(any) int
	// Priomap maps a task ID to a scheduling priority (larger runs
	// first). Optional.
	Priomap func(Key) int64
	// Dense declares the box the template's task IDs fill, so that keys
	// inside it match in flat join slots instead of the shell table
	// (dense.go). Optional; not allowed with streaming inputs.
	Dense *DenseKeys
}

// TT is a template task instance bound to a graph.
type TT struct {
	g       *Graph
	id      int
	name    string
	inputs  []InputSpec
	outputs []OutputSpec
	body    func(ctx *TaskContext)
	keymap  func(Key) int
	priomap func(Key) int64
	// streaming is set when some input terminal has a reducer; only such
	// TTs give their shells stream bookkeeping.
	streaming bool

	// match is the sharded (task ID → shell) table; see match.go.
	match matchTable
	// dense holds the join slots of a declared key box (dense.go), or is
	// nil; keys outside the box use match.
	dense *denseSlots
}

// Graph is one rank's instance of the template task graph. Every rank of
// the virtual cluster builds an identical graph (SPMD), and the DAG of
// tasks unfolds across ranks as messages flow.
type Graph struct {
	exec   Executor
	tts    []*TT
	sealed bool
	// keys interns this graph's task IDs that do not pack (key.go).
	keys keyTable

	// obs is the rank's recorder (nil disables tracing); the histogram
	// handles are resolved once here so events never take the registry
	// lock on the hot path. Counts are not among them: every counted
	// event increments its exec.Tracer() cell and nothing else. Levels
	// are not either: pending shells and partials are read where they
	// live (PendingTaskCount, PendingReductions), the ready backlog from
	// the activate and exec-start events.
	obs         obs.Recorder
	matchDelay  *obs.Histogram
	taskLatency *obs.Histogram

	// flowSeq allocates causal span ids for remote deliveries; combined
	// with the rank it yields cluster-unique nonzero ids.
	flowSeq atomic.Uint64

	// Hierarchical-reduction state (reduce.go): the sharded combining
	// buffers, the pre-reduction ablation switch, whether the backend
	// buffers partials for wave flushing (sim) or flushes them through on
	// arrival (real transports), and the auto-flush test knob.
	rshards   []reduceShard
	rmask     uint64
	rlive     atomic.Int64
	rseq      atomic.Uint64 // creation order of combiner slots
	preReduce bool
	rbuffered bool
	rflush    bool

	// fanouts recycles the bookkeeping of wide sends (edgesend.go).
	fanouts sync.Pool
}

// reductionBuffering is the optional Executor interface a backend
// implements to declare how combiner slots should drain. A backend that
// returns true (the discrete-event simulator) parks partials until the
// engine's idle waves sweep them up the tree age-gated; a backend without
// it (the real thread-pool transports) gets flush-through: an arriving
// partial folds and immediately continues toward the owner from the
// receive handler, so no rank ever parks a partial while another blocks
// in a fence.
type reductionBuffering interface {
	BuffersReductions() bool
}

// NewGraph creates an empty graph bound to a backend executor.
func NewGraph(exec Executor) *Graph {
	g := &Graph{exec: exec, preReduce: true, rflush: true}
	if rb, ok := exec.(reductionBuffering); ok {
		g.rbuffered = rb.BuffersReductions()
	}
	g.initReduce()
	if o := exec.Obs(); o != nil {
		g.obs = o
		m := o.Metrics()
		g.matchDelay = m.Histogram(obs.HistMatchDelay)
		g.taskLatency = m.Histogram(obs.HistTaskLatency)
	}
	return g
}

// nextFlow allocates a cluster-unique nonzero causal span id: the rank in
// the high bits, a local sequence in the low 48.
func (g *Graph) nextFlow() uint64 {
	return uint64(g.exec.Rank()+1)<<48 | (g.flowSeq.Add(1) & (1<<48 - 1))
}

// Rank returns the local rank.
func (g *Graph) Rank() int { return g.exec.Rank() }

// Size returns the number of ranks.
func (g *Graph) Size() int { return g.exec.Size() }

// AddTT registers a template task. Must be called identically on every
// rank and before Seal.
func (g *Graph) AddTT(spec TTSpec) *TT {
	if g.sealed {
		panic("core: AddTT after Seal")
	}
	if len(spec.Inputs) == 0 {
		panic(fmt.Sprintf("core: TT %q needs at least one input terminal", spec.Name))
	}
	if len(spec.Inputs) > 64 {
		panic(fmt.Sprintf("core: TT %q has more than 64 input terminals", spec.Name))
	}
	if spec.Body == nil {
		panic(fmt.Sprintf("core: TT %q has no body", spec.Name))
	}
	checkDense(&spec)
	tt := &TT{
		g:       g,
		id:      len(g.tts),
		name:    spec.Name,
		inputs:  spec.Inputs,
		outputs: spec.Outputs,
		body:    spec.Body,
		keymap:  spec.Owner,
		priomap: spec.Priomap,
	}
	tt.match.init()
	tt.dense = newDenseSlots(spec.Dense, len(spec.Inputs))
	if f := spec.Keymap; f != nil {
		if tt.keymap != nil {
			panic(fmt.Sprintf("core: TT %q sets both Owner and Keymap", spec.Name))
		}
		tt.keymap = func(key Key) int { return f(key.Value()) }
	}
	if tt.keymap == nil {
		tt.keymap = func(key Key) int { return HashKey(key) % g.exec.Size() }
	}
	for term, in := range spec.Inputs {
		if in.Edge == nil {
			panic(fmt.Sprintf("core: TT %q input %d has no edge", spec.Name, term))
		}
		if in.Reducer != nil {
			tt.streaming = true
		}
		in.Edge.consumers = append(in.Edge.consumers, consumer{tt: tt, term: term})
	}
	for term, out := range spec.Outputs {
		if out.Edge != nil {
			out.Edge.producers = append(out.Edge.producers, consumer{tt: tt, term: term})
		}
	}
	g.tts = append(g.tts, tt)
	return tt
}

// Seal freezes the graph: it validates the wiring and makes the graph
// executable. Analogous to make_graph_executable in the C++ TTG.
func (g *Graph) Seal() {
	if g.sealed {
		return
	}
	for _, tt := range g.tts {
		for term, out := range tt.outputs {
			if out.Edge == nil {
				panic(fmt.Sprintf("core: TT %q output %d has no edge", tt.name, term))
			}
		}
	}
	g.sealed = true
}

// Sealed reports whether Seal has run.
func (g *Graph) Sealed() bool { return g.sealed }

// TTByID returns a template task by registration index.
func (g *Graph) TTByID(id int) *TT { return g.tts[id] }

// NumTTs returns the number of registered template tasks.
func (g *Graph) NumTTs() int { return len(g.tts) }

// Fence blocks until the whole distributed computation has quiesced.
func (g *Graph) Fence() { g.exec.Fence() }

// ID returns the TT's registration index (stable across ranks).
func (tt *TT) ID() int { return tt.id }

// Name returns the TT's diagnostic name.
func (tt *TT) Name() string { return tt.name }

// NumInputs returns the number of input terminals.
func (tt *TT) NumInputs() int { return len(tt.inputs) }

// NumOutputs returns the number of output terminals.
func (tt *TT) NumOutputs() int { return len(tt.outputs) }

// Owner returns the rank that executes the task with the given ID.
func (tt *TT) Owner(key Key) int { return tt.keymap(key) }

// Priority returns the scheduling priority for a task ID.
func (tt *TT) Priority(key Key) int64 {
	if tt.priomap == nil {
		return 0
	}
	return tt.priomap(key)
}

// PendingShells reports how many partially filled task instances exist
// (diagnostics; a nonzero value after a fence indicates a hung graph).
func (tt *TT) PendingShells() int {
	return int(tt.pending())
}

// pending counts the waiting shells and, with a key box, sweeps its
// slots.
func (tt *TT) pending() int64 {
	n := tt.match.live.Load()
	if tt.dense != nil {
		n += tt.dense.pending()
	}
	return n
}

// Task is one ready task instance. Tasks made ready by matching come
// from their shard's free list and go back to it once the body has run.
type Task struct {
	TT       *TT
	Key      Key
	Inputs   []any
	Priority int64
	// Origin is the worker index that discovered the task, or -1;
	// stealing backends use it for locality.
	Origin int
	// activatedNs is the observability clock reading when the task
	// became ready (0 when tracing is disabled); the match→exec delay
	// histogram is the gap to execution start.
	activatedNs int64
	// home is the shard whose free list the task returns to (nil for
	// Invoke-created tasks); next links it there.
	home *matchShard
	next *Task
	// holds are the tracked handles this task keeps referenced for the
	// body's duration (read-only inputs); see data.go. The backing array
	// is recycled with the task.
	holds []*tracked
	// ctx is the body's context, kept in the (recycled) task because one
	// built in Execute escapes to the heap, once per task.
	ctx TaskContext
	// in backs Inputs for TTs with at most inlineInputs terminals.
	in [inlineInputs]any
}

// Execute runs the task body and retires the task's activity unit. The
// backend must call it exactly once, passing the executing worker's index.
// After Execute returns, the task (and its shell) may be recycled: the
// backend and the body must not retain t or its TaskContext. A body that
// panics leaves its unit active, so Fence cannot return while the
// backend's panic hook is still writing its crash dump.
func (t *Task) Execute(worker int) {
	g := t.TT.g
	t.materialize()
	t.ctx = TaskContext{task: t, worker: worker}
	if o := g.obs; o != nil {
		t.executeObserved(o, &t.ctx, worker)
	} else {
		t.TT.body(&t.ctx)
	}
	t.releaseHolds()
	g.exec.Tracer().TasksExecuted.Add(1)
	if t.home != nil {
		t.release() // last use of t
	}
	g.exec.Deactivate()
}

// executeObserved wraps the body in exec-start/exec-end events and feeds
// the latency and match-delay histograms.
func (t *Task) executeObserved(o obs.Recorder, ctx *TaskContext, worker int) {
	g := t.TT.g
	key := t.Key.String()
	now := o.Now()
	o.Record(obs.Event{Kind: obs.EvExecStart, Worker: int32(worker),
		TT: int32(t.TT.id), TS: now, Name: t.TT.name, Key: key})
	if t.activatedNs > 0 {
		g.matchDelay.Observe(now - t.activatedNs)
	}
	start := time.Now()
	t.TT.body(ctx)
	dur := int64(time.Since(start))
	g.taskLatency.Observe(dur)
	o.Record(obs.Event{Kind: obs.EvExecEnd, Worker: int32(worker),
		TT: int32(t.TT.id), TS: now + dur, Dur: dur, Name: t.TT.name, Key: key})
}
