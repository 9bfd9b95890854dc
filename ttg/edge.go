package ttg

import (
	"sync"

	"repro/internal/core"
)

// Edge is a typed conduit carrying (K, V) messages from output terminals to
// input terminals. Both the task-ID type K and the value type V are fixed
// at compile time, giving the same type safety as the C++ ttg::Edge<K,V>.
type Edge[K comparable, V any] struct {
	e *core.Edge
}

// NewEdge creates an edge; the name is diagnostic only.
func NewEdge[K comparable, V any](name string) Edge[K, V] {
	return Edge[K, V]{e: core.NewEdge(name)}
}

// Name returns the edge's diagnostic name.
func (e Edge[K, V]) Name() string { return e.e.Name() }

// rawEdge lets heterogeneous typed edges be gathered into output lists.
type rawEdge interface{ rawCoreEdge() *core.Edge }

func (e Edge[K, V]) rawCoreEdge() *core.Edge { return e.e }

// In declares a typed input terminal of a template task.
type In[K comparable, V any] struct {
	spec core.InputSpec
}

// Input declares a plain input terminal fed by e: one message per task ID.
func Input[K comparable, V any](e Edge[K, V]) In[K, V] {
	return In[K, V]{spec: core.InputSpec{Edge: e.e}}
}

// ReadOnly declares that the task body only reads this terminal's value
// while executing (the paper's const-ref argument flow). Under a
// data-tracking backend, read-only consumers of one send share a single
// physical copy; the sender must not mutate the value after sending.
func (in In[K, V]) ReadOnly() In[K, V] {
	in.spec.Access = core.ReadOnly
	return in
}

// ReadWrite declares that the task body mutates this terminal's value in
// place. The runtime hands it an exclusive object: the last live reference
// is taken as-is, otherwise a copy materializes lazily when the task
// starts (copy-on-write). The sender must not mutate after sending.
func (in In[K, V]) ReadWrite() In[K, V] {
	in.spec.Access = core.ReadWrite
	return in
}

// Commutative declares that this streaming terminal's reducer is
// associative AND commutative, opting it into hierarchical reduction:
// same-rank contributions fold into a local combiner without a match-table
// trip, and remote-bound streams forward one partial up a binomial reduce
// tree instead of one message per contribution. The runtime may therefore
// apply the reducer in ANY order and grouping — the fold result must not
// depend on arrival order (floating-point summation accepts the usual
// reassociation rounding under this hint).
//
// A commutative stream must close by count: declare a size func in
// ReduceInput or announce one with SetStreamSize. Finalize and
// SeedFinalize panic — an order-based close cannot be made coherent with
// partials parked on other ranks. Only meaningful on ReduceInput terminals.
func (in In[K, V]) Commutative() In[K, V] {
	in.spec.Commutative = true
	return in
}

// ConstInput is shorthand for Input(e).ReadOnly().
func ConstInput[K comparable, V any](e Edge[K, V]) In[K, V] {
	return Input(e).ReadOnly()
}

// ReduceInput declares a streaming input terminal (§II-B): messages for the
// same task ID are folded pairwise with reduce (the first message starts
// the accumulator), and the terminal is satisfied after size(key) messages.
// Pass a nil size to leave streams open until SetStreamSize or Finalize.
// This is the set_input_reducer of Listing 3.
func ReduceInput[K comparable, V any](e Edge[K, V], reduce func(acc, v V) V, size func(K) int) In[K, V] {
	spec := core.InputSpec{
		Edge: e.e,
		Reducer: func(acc, v any) any {
			if acc == nil {
				return v
			}
			return reduce(acc.(V), v.(V))
		},
	}
	if size != nil {
		spec.StreamSize = func(key core.Key) int { return size(core.Unpack[K](key)) }
	}
	return In[K, V]{spec: spec}
}

// Out gathers typed edges into a template task's output terminal list.
// Output terminals exist for graph-structure validation; sends address
// edges directly.
func Out(edges ...rawEdge) []core.OutputSpec {
	out := make([]core.OutputSpec, len(edges))
	for i, e := range edges {
		out[i] = core.OutputSpec{Edge: e.rawCoreEdge()}
	}
	return out
}

// Context is implemented by every typed task context; the send operations
// accept any of them.
type Context interface{ coreCtx() *core.TaskContext }

// Ctx is the typed task context for a template task with task-ID type K.
// It is the engine's task context under a typed method set, so handing one
// to a task body costs nothing.
type Ctx[K comparable] core.TaskContext

func (x *Ctx[K]) coreCtx() *core.TaskContext { return (*core.TaskContext)(x) }

// Key returns the task ID.
func (x *Ctx[K]) Key() K { return core.Unpack[K](x.coreCtx().Key()) }

// Rank returns the executing rank.
func (x *Ctx[K]) Rank() int { return x.coreCtx().Rank() }

// Size returns the number of ranks.
func (x *Ctx[K]) Size() int { return x.coreCtx().Size() }

// Worker returns the executing worker-thread index.
func (x *Ctx[K]) Worker() int { return x.coreCtx().Worker() }

// Retain marks a read-only input value as kept beyond the task body (for
// example stored into an application-side map): the runtime will never
// reclaim its buffers. Values the body only reads and drops need no Retain.
func (x *Ctx[K]) Retain(v any) { x.coreCtx().Retain(v) }

// Send emits value for task ID key on edge e with copy semantics
// (Fig. 2a).
func Send[K comparable, V any](x Context, e Edge[K, V], key K, value V) {
	x.coreCtx().SendEdge(e.e, core.Pack(key), value, core.SendCopy)
}

// SendM is Send with explicit data-passing semantics.
func SendM[K comparable, V any](x Context, e Edge[K, V], key K, value V, mode Mode) {
	x.coreCtx().SendEdge(e.e, core.Pack(key), value, mode)
}

// Broadcast emits one value for several task IDs on edge e (Fig. 2b); the
// value crosses each network link at most once.
func Broadcast[K comparable, V any](x Context, e Edge[K, V], keys []K, value V) {
	BroadcastM(x, e, keys, value, core.SendCopy)
}

// BroadcastM is Broadcast with explicit semantics.
func BroadcastM[K comparable, V any](x Context, e Edge[K, V], keys []K, value V, mode Mode) {
	kb := keyBufs.Get().(*keyBuf)
	kb.k = keyList[K](keys).pack(kb.k[:0])
	x.coreCtx().BroadcastEdge(e.e, kb.k, value, mode)
	kb.put()
}

// Target names one edge and the task IDs a multi-terminal broadcast feeds
// through it; build with To.
type Target[V any] struct {
	e    *core.Edge
	keys keyPacker
}

// To builds a broadcast target: edge e for the given task IDs. The keys
// are packed when the broadcast is sent; the slice must not change until
// then.
func To[K comparable, V any](e Edge[K, V], keys ...K) Target[V] {
	return Target[V]{e: e.e, keys: keyList[K](keys)}
}

// BroadcastMulti emits one value to several output terminals, each with its
// own task IDs (Fig. 2c — the TRSM pattern of Listing 1). All targets must
// carry the same value type; the value crosses each link at most once.
func BroadcastMulti[V any](x Context, value V, mode Mode, targets ...Target[V]) {
	var eb [4]*core.Edge
	var ksb [4][]core.Key
	edges, keys := eb[:0], ksb[:0]
	n := 0
	for _, t := range targets {
		n += t.keys.len()
	}
	// One scratch array holds every target's keys; sized up front, so the
	// per-target views below stay valid.
	kb := keyBufs.Get().(*keyBuf)
	buf := kb.k[:0]
	if cap(buf) < n {
		buf = make([]core.Key, 0, n)
	}
	for _, t := range targets {
		start := len(buf)
		buf = t.keys.pack(buf)
		edges = append(edges, t.e)
		keys = append(keys, buf[start:len(buf):len(buf)])
	}
	x.coreCtx().BroadcastEdges(edges, keys, value, mode)
	kb.k = buf
	kb.put()
}

// keyPacker is a typed key list with its type erased.
type keyPacker interface {
	len() int
	pack(dst []core.Key) []core.Key
}

// keyList packs a []K.
type keyList[K comparable] []K

func (l keyList[K]) len() int { return len(l) }

func (l keyList[K]) pack(dst []core.Key) []core.Key {
	for _, k := range l {
		dst = append(dst, core.Pack(k))
	}
	return dst
}

// keyBuf is recycled scratch for the packed keys of one broadcast; the
// engine does not keep them once the send returns.
type keyBuf struct{ k []core.Key }

var keyBufs = sync.Pool{New: func() any { return new(keyBuf) }}

// put scrubs interned-key references and returns b to the pool.
func (b *keyBuf) put() {
	clear(b.k)
	b.k = b.k[:0]
	keyBufs.Put(b)
}

// Finalize closes the streaming terminals fed by e for the given task ID;
// their current accumulation becomes the task input.
func Finalize[K comparable, V any](x Context, e Edge[K, V], key K) {
	x.coreCtx().FinalizeEdge(e.e, core.Pack(key))
}

// SetStreamSize announces how many stream messages the terminals fed by e
// should expect for the given task ID.
func SetStreamSize[K comparable, V any](x Context, e Edge[K, V], key K, n int) {
	x.coreCtx().SetStreamSizeEdge(e.e, core.Pack(key), n)
}

// Seed injects a value into an edge from outside any task (initial data
// injection from a rank main, between MakeExecutable and Fence). Routing
// follows the consumers' keymaps, so seeding from one rank is enough.
func Seed[K comparable, V any](g *Graph, e Edge[K, V], key K, value V) {
	SeedM(g, e, key, value, core.SendCopy)
}

// SeedM is Seed with explicit data-passing semantics. Seeding with Move
// hands the value to the runtime — the caller must not touch it afterwards,
// and consumers share it through the data tracker instead of cloning.
func SeedM[K comparable, V any](g *Graph, e Edge[K, V], key K, value V, mode Mode) {
	kb := [1]core.Key{core.Pack(key)}
	g.core.SeedKeys(e.e, kb[:], value, mode)
}

// SeedBroadcast injects one value for several task IDs.
func SeedBroadcast[K comparable, V any](g *Graph, e Edge[K, V], keys []K, value V) {
	g.core.SeedKeys(e.e, keyList[K](keys).pack(nil), value, core.SendCopy)
}

// SeedFinalize closes streaming terminals fed by e from outside any task.
func SeedFinalize[K comparable, V any](g *Graph, e Edge[K, V], key K) {
	g.core.FinalizeSeed(e.e, core.Pack(key))
}

// SeedSetStreamSize announces a stream length from outside any task.
func SeedSetStreamSize[K comparable, V any](g *Graph, e Edge[K, V], key K, n int) {
	g.core.SetStreamSizeSeed(e.e, core.Pack(key), n)
}

// input extracts a typed input, mapping an absent (finalized-empty) stream
// to V's zero value.
func input[V any](c *core.TaskContext, i int) V {
	if v := c.Input(i); v != nil {
		return v.(V)
	}
	var zero V
	return zero
}
