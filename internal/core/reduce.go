package core

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/collective"
	"repro/internal/obs"
	"repro/internal/serde"
)

// Hierarchical streaming-terminal reduction: the dual of the optimized
// broadcast. A streaming terminal with a commutative reducer
// (InputSpec.Commutative) stops landing every contribution on the owner's
// match table one message at a time. Instead each rank folds its own
// contributions — local tasks' sends and partials arriving from reduce-tree
// children alike — into a per-(template, terminal, task-ID) combiner slot,
// striped across shards exactly like the match table so concurrent workers
// rarely contend. A slot drains in one of four ways: the owner's watermark
// (the slot has folded the full declared stream size), a SetStreamSize
// control reaching the owner, the backend's idle flush, or the fence. A
// draining slot on the owner rank applies its accumulator to the match
// table as a single n-contribution delivery; on any other rank it climbs
// one hop of the binomial reduce tree rooted at the owner
// (collective.ReduceParent) as a CtrlReduce delivery, folding with the
// slots of the ranks it passes through. The owner therefore receives at
// most ceil(log2 P) partials where the point-to-point scheme received one
// message per remote contribution. ReduceBytesSaved tracks the payload
// merged into an already-parked remote-bound slot — every such fold is
// one delivery's worth of bytes that reaches the owner inside a combined
// partial instead of individually.
//
// Correctness contract: partials park locally and hop in rank-dependent
// order, so the fold must be associative and commutative (hence the opt-in
// flag) and the stream must close by count — StreamSize or SetStreamSize —
// never a finalize (FinalizeEdge, FinalizeSeed), which races the in-flight
// partials and panics.

// rkey addresses one combiner slot.
type rkey struct {
	tt   int
	term int
	key  Key
}

// rslot is one parked partial accumulation.
type rslot struct {
	tt    *TT
	term  int
	key   Key
	acc   any
	count int // contributions folded into acc
	owner int // tt.keymap(key): the reduce-tree root
	// target is the declared stream size at the owner (-1 unknown); the
	// owner's slot flushes eagerly the moment count reaches it.
	target int
	// hold is the idle-wave age gate used by buffering backends: a rank at
	// reduce-tree height h holds its slot for h sweeps so all of its
	// children (at strictly smaller heights) flush into it first, keeping
	// the owner's inbound partial count at the binomial bound even though
	// flushing is driven by global idleness rather than per-hop acks.
	hold int
	// seq is the slot's place in the graph's creation order: sweeps flush
	// in it, so the simulator's virtual time depends neither on map
	// iteration nor on the shard count.
	seq uint64
}

// reduceShard is one stripe of a graph's combining buffers. The padding
// keeps shard locks off each other's cache lines, as in matchShard.
type reduceShard struct {
	mu    sync.Mutex
	slots map[rkey]*rslot
	_     [112]byte
}

// initReduce sizes the combining buffers (called by NewGraph).
func (g *Graph) initReduce() {
	n := shardCount()
	g.rshards = make([]reduceShard, n)
	g.rmask = uint64(n - 1)
	for i := range g.rshards {
		g.rshards[i].slots = map[rkey]*rslot{}
	}
}

// reduceShardFor selects the stripe for a terminal instance.
func (g *Graph) reduceShardFor(tt, term int, key Key) *reduceShard {
	h := mix64(key.hash() ^ uint64(tt)<<32 ^ uint64(term))
	return &g.rshards[h&g.rmask]
}

// combines reports whether contributions to a terminal go through the
// combining buffers: a commutative streaming terminal with pre-reduction
// enabled.
func (g *Graph) combines(tt *TT, term int) bool {
	in := &tt.inputs[term]
	return g.preReduce && in.Reducer != nil && in.Commutative
}

// SetPreReduce toggles local pre-reduction and tree combining (the
// ablation switch; on by default). Flip it before seeding — switching
// while partials are parked is not supported.
func (g *Graph) SetPreReduce(on bool) { g.preReduce = on }

// DisableReduceAutoFlush stops idle/fence/wave sweeps from draining
// combiner slots. Test hook: a partial then stays parked across a fence,
// which the graph doctor must report as lost input rather than letting it
// vanish silently.
func (g *Graph) DisableReduceAutoFlush() { g.rflush = false }

// foldLocal absorbs one contribution into the combiner slot for its
// terminal instance, creating the slot (and taking an activity unit, so
// termination detection sees the parked partial) on first use. Returns the
// ready task when the fold tripped the owner's watermark, nil otherwise.
func (g *Graph) foldLocal(tt *TT, term int, key Key, v any, worker int) *Task {
	spec := &tt.inputs[term]
	tr := g.exec.Tracer()
	me := g.exec.Rank()
	rs := g.reduceShardFor(tt.id, term, key)
	k := rkey{tt: tt.id, term: term, key: key}

	rs.mu.Lock()
	sl, ok := rs.slots[k]
	if !ok {
		sl = g.newSlotLocked(rs, k, tt, term, key)
	}
	if sl.count > 0 && sl.owner != me {
		tr.ReduceBytesSaved.Add(int64(serde.WireSizeAny(v)))
	}
	sl.acc = spec.Reducer(sl.acc, v)
	sl.count++
	watermark := sl.owner == me && sl.target >= 0 && sl.count >= sl.target
	if watermark {
		g.extractLocked(rs, k, sl)
	}
	rs.mu.Unlock()

	tr.ReduceLocalFolds.Add(1)
	if o := g.obs; o != nil {
		o.Record(obs.Event{Kind: obs.EvReduceFold, Worker: int32(worker),
			TT: int32(tt.id), Name: tt.name})
	}
	if !watermark {
		return nil
	}
	t := g.applyPartial(tt, term, key, sl.acc, sl.count, worker)
	g.exec.Deactivate()
	return t
}

// foldPartial absorbs a CtrlReduce delivery (a child's partial) into the
// local slot. Buffering backends leave it parked for the wave sweep; on
// flush-through backends the combined slot continues toward the owner
// immediately, from the receive handler, so no rank parks a partial while
// others block in a fence.
func (g *Graph) foldPartial(tt *TT, term int, key Key, v any, n int, worker int) *Task {
	spec := &tt.inputs[term]
	tr := g.exec.Tracer()
	me := g.exec.Rank()
	owner := tt.keymap(key)
	if owner == me {
		tr.ReduceDeliveries.Add(1)
	} else {
		tr.ReduceHops.Add(1)
	}
	rs := g.reduceShardFor(tt.id, term, key)
	k := rkey{tt: tt.id, term: term, key: key}

	rs.mu.Lock()
	sl, ok := rs.slots[k]
	if !ok {
		sl = g.newSlotLocked(rs, k, tt, term, key)
	}
	if sl.count > 0 && sl.owner != me {
		tr.ReduceBytesSaved.Add(int64(serde.WireSizeAny(v)))
	}
	sl.acc = spec.Reducer(sl.acc, v)
	sl.count += n
	flush := !g.rbuffered ||
		(sl.owner == me && sl.target >= 0 && sl.count >= sl.target)
	if flush {
		g.extractLocked(rs, k, sl)
	}
	rs.mu.Unlock()

	if o := g.obs; o != nil {
		o.Record(obs.Event{Kind: obs.EvReduceFold, Worker: int32(worker),
			TT: int32(tt.id), Name: tt.name})
	}
	if !flush {
		return nil
	}
	var t *Task
	if sl.owner == me {
		t = g.applyPartial(tt, term, key, sl.acc, sl.count, worker)
	} else {
		g.sendPartial(tt, term, key, sl.acc, sl.count, sl.owner)
	}
	g.exec.Deactivate()
	return t
}

// newSlotLocked creates a combiner slot; the caller holds rs.mu.
func (g *Graph) newSlotLocked(rs *reduceShard, k rkey, tt *TT, term int, key Key) *rslot {
	me := g.exec.Rank()
	sl := &rslot{tt: tt, term: term, key: key, owner: tt.keymap(key), target: -1,
		seq: g.rseq.Add(1)}
	if sl.owner == me {
		if f := tt.inputs[term].StreamSize; f != nil {
			sl.target = f(key)
		}
	}
	if g.rbuffered {
		sl.hold = collective.ReduceHeight(sl.owner, g.exec.Size(), me)
	}
	rs.slots[k] = sl
	g.rlive.Add(1)
	g.exec.Activate()
	return sl
}

// extractLocked removes a slot from its shard map. The caller holds rs.mu
// and owns the flush — and the slot's activity unit — once the lock is
// released.
func (g *Graph) extractLocked(rs *reduceShard, k rkey, sl *rslot) {
	delete(rs.slots, k)
	g.rlive.Add(-1)
}

// flushKeySlot drains the combiner slot of one terminal instance, if any —
// the SetStreamSize path: the control must land on a shell that has
// already absorbed the parked partial, or the watermark comparison would
// run against a partial count. Submits any task it completes.
func (g *Graph) flushKeySlot(tt *TT, term int, key Key, worker int) {
	if !g.combines(tt, term) {
		return
	}
	rs := g.reduceShardFor(tt.id, term, key)
	k := rkey{tt: tt.id, term: term, key: key}
	rs.mu.Lock()
	sl, ok := rs.slots[k]
	if ok {
		g.extractLocked(rs, k, sl)
	}
	rs.mu.Unlock()
	if !ok {
		return
	}
	g.flushSlot(sl, worker)
}

// flushSlot lands one extracted slot: the owner folds it into the match
// table as a single n-contribution delivery; any other rank sends it one
// hop up the reduce tree. Releases the slot's activity unit.
func (g *Graph) flushSlot(sl *rslot, worker int) {
	if sl.owner == g.exec.Rank() {
		if t := g.applyPartial(sl.tt, sl.term, sl.key, sl.acc, sl.count, worker); t != nil {
			g.submitOne(t, worker)
		}
	} else {
		g.sendPartial(sl.tt, sl.term, sl.key, sl.acc, sl.count, sl.owner)
	}
	g.exec.Deactivate()
}

// sendPartial ships a folded partial one hop toward the owner along the
// binomial reduce tree. Ownership of acc transfers with the delivery
// (SendMove): the slot it came from is gone.
func (g *Graph) sendPartial(tt *TT, term int, key Key, acc any, n, owner int) {
	parent := collective.ReduceParent(owner, g.exec.Size(), g.exec.Rank())
	g.exec.Tracer().ReducePartialsSent.Add(1)
	d := Delivery{
		Targets: []TermTarget{{TT: tt.id, Term: term, Keys: []Key{key}}},
		Value:   acc,
		Control: CtrlReduce,
		N:       n,
		Mode:    SendMove,
	}
	if o := g.obs; o != nil {
		o.Record(obs.Event{Kind: obs.EvSend, Worker: -1, TT: int32(tt.id)})
		d.Flow = g.nextFlow()
		o.Record(obs.Event{Kind: obs.EvFlowEmit, Worker: -1, TT: int32(tt.id),
			Flow: d.Flow, Bytes: int64(parent)})
	}
	g.exec.Deliver(parent, d)
}

// applyPartial lands an extracted accumulator on the match table as one
// delivery representing n contributions: a single shard-lock trip and a
// single reducer fold however many sends it absorbed. Returns the task if
// the stream completed.
func (g *Graph) applyPartial(tt *TT, term int, key Key, acc any, n int, worker int) *Task {
	spec := &tt.inputs[term]
	g.exec.Tracer().MatchOps.Add(1)
	if o := g.obs; o != nil {
		o.Record(obs.Event{Kind: obs.EvTerminalMatch, Worker: int32(worker),
			TT: int32(tt.id), Name: tt.name, Key: key.String()})
	}
	h := key.hash()
	sp := tt.match.shard(h)
	sp.mu.Lock()
	sh := tt.getShellLocked(sp, key, h)
	in := sh.input(term)
	*in = spec.Reducer(*in, acc)
	x := sh.ext
	x.counts[term] += n
	if x.targets[term] >= 0 && x.counts[term] >= x.targets[term] {
		sh.satisfied |= 1 << uint(term)
	}
	return g.maybeReadyLocked(tt, sp, sh, h, worker)
}

// FlushReductions drains combiner slots. With wave=false (idle and fence
// flushing) every slot drains now. With wave=true (the simulator's
// idle-wave sweep) each slot's age gate is decremented and only ripe slots
// drain, so partials climb the tree one level per wave and each rank
// forwards a single fully combined partial. Returns the number of slots
// swept (aged or drained) — a buffering backend keeps running waves while
// this is nonzero. No-op after DisableReduceAutoFlush.
func (g *Graph) FlushReductions(wave bool) int {
	if !g.rflush {
		return 0
	}
	swept := 0
	var flush []*rslot
	for i := range g.rshards {
		rs := &g.rshards[i]
		rs.mu.Lock()
		for k, sl := range rs.slots {
			swept++
			if wave && sl.hold > 0 {
				sl.hold--
				continue
			}
			g.extractLocked(rs, k, sl)
			flush = append(flush, sl)
		}
		rs.mu.Unlock()
	}
	slices.SortFunc(flush, bySeq)
	for _, sl := range flush {
		g.flushSlot(sl, -1)
	}
	return swept
}

// bySeq orders combiner slots by creation.
func bySeq(a, b *rslot) int { return cmp.Compare(a.seq, b.seq) }

// PendingReductions reports how many combiner slots hold unflushed
// partials, without taking any shard lock. Nonzero after a fence means
// contributions were absorbed but never delivered (see the graph doctor).
func (g *Graph) PendingReductions() int64 { return g.rlive.Load() }

// PendingPartial describes one parked combiner slot (doctor reports).
type PendingPartial struct {
	TT    string
	TTID  int
	Term  int
	Key   string
	Count int // contributions folded into the parked accumulator
	Owner int // rank whose match table the partial is bound for
}

// PendingPartials snapshots up to max parked combiner slots (all of them
// when max <= 0) in creation order, locking one shard at a time.
func (g *Graph) PendingPartials(max int) []PendingPartial {
	var slots []*rslot
	for i := range g.rshards {
		rs := &g.rshards[i]
		rs.mu.Lock()
		for _, sl := range rs.slots {
			slots = append(slots, sl)
		}
		rs.mu.Unlock()
	}
	slices.SortFunc(slots, bySeq)
	if max > 0 && len(slots) > max {
		slots = slots[:max]
	}
	var out []PendingPartial
	for _, sl := range slots {
		out = append(out, PendingPartial{
			TT:    sl.tt.name,
			TTID:  sl.tt.id,
			Term:  sl.term,
			Key:   sl.key.String(),
			Count: sl.count,
			Owner: sl.owner,
		})
	}
	return out
}
