package core

import (
	"fmt"

	"repro/internal/obs"
)

// TaskContext is passed to task bodies; it exposes the task's identity and
// inputs and the send/broadcast operations on its output terminals.
type TaskContext struct {
	task   *Task
	worker int
}

// Key returns the task ID.
func (c *TaskContext) Key() Key { return c.task.Key }

// Input returns the value received on input terminal i.
func (c *TaskContext) Input(i int) any { return c.task.Inputs[i] }

// Rank returns the executing rank.
func (c *TaskContext) Rank() int { return c.task.TT.g.exec.Rank() }

// Size returns the number of ranks.
func (c *TaskContext) Size() int { return c.task.TT.g.exec.Size() }

// Worker returns the index of the worker thread running the task.
func (c *TaskContext) Worker() int { return c.worker }

// Retain marks a value received on a read-only terminal as kept by the
// application beyond the task body (TTG's "keep" convention): the runtime
// then never reclaims it. No-op for values that are not runtime-owned.
func (c *TaskContext) Retain(v any) { c.task.noteSend(v) }

// Seed injects a value into an edge from outside any task (the initial
// data injection a rank main performs before fencing). Routing follows the
// consumers' keymaps, so seeding from one rank reaches tasks anywhere. The
// task ID is an application value (KeyOf).
func (g *Graph) Seed(e *Edge, key, value any) {
	g.SeedMode(e, key, value, SendCopy)
}

// SeedMode is Seed with explicit data-passing semantics. Seeding with
// SendMove hands the value to the runtime outright — the caller must not
// touch it afterwards, and local consumers share it through the data
// tracker instead of each cloning the seed.
func (g *Graph) SeedMode(e *Edge, key, value any, mode SendMode) {
	// Stack-backed: routeEdges does not retain the key list.
	kb := [1]Key{KeyOf(key)}
	g.SeedKeys(e, kb[:], value, mode)
}

// SeedKeys injects one value into e for several task IDs.
func (g *Graph) SeedKeys(e *Edge, keys []Key, value any, mode SendMode) {
	if !g.sealed {
		panic("core: Seed before Seal")
	}
	g.exec.Activate()
	defer g.exec.Deactivate()
	ksb := [1][]Key{keys}
	eb := [1]*Edge{e}
	g.routeEdges(-1, eb[:], ksb[:], value, mode)
}

// FinalizeSeed closes streaming terminals on e for key from outside tasks.
func (g *Graph) FinalizeSeed(e *Edge, key Key) {
	g.exec.Activate()
	defer g.exec.Deactivate()
	g.controlEdge(e, -1, key, CtrlFinalize, 0)
}

// SetStreamSizeSeed announces a stream length on e for key from outside
// tasks.
func (g *Graph) SetStreamSizeSeed(e *Edge, key Key, n int) {
	g.exec.Activate()
	defer g.exec.Deactivate()
	g.controlEdge(e, -1, key, CtrlSetSize, n)
}

func (g *Graph) controlEdge(e *Edge, worker int, key Key, ctrl ControlKind, n int) {
	me := g.exec.Rank()
	key = g.canon(key)
	for _, cons := range e.consumers {
		dst := cons.tt.keymap(key)
		if dst == me {
			if t := g.landControl(cons.tt, cons.term, key, ctrl, n, worker); t != nil {
				g.submitOne(t, worker)
			}
			continue
		}
		// Refused here too, so the misuse panics at its caller rather than
		// in the receiving rank's handler.
		g.refuseFinalize(cons.tt, cons.term, ctrl)
		g.exec.Deliver(dst, Delivery{
			Targets: []TermTarget{{TT: cons.tt.id, Term: cons.term, Keys: []Key{key}}},
			Control: ctrl,
			N:       n,
		})
	}
}

// Inject applies a delivery that arrived from the network; backends call it
// from their receive handlers. The delivered value is freshly owned.
func (g *Graph) Inject(d Delivery) {
	if d.Flow != 0 {
		if o := g.obs; o != nil {
			tt := int32(-1)
			name := ""
			if len(d.Targets) > 0 {
				tt = int32(d.Targets[0].TT)
				name = g.tts[d.Targets[0].TT].name
			}
			o.Record(obs.Event{Kind: obs.EvFlowRecv, Worker: -1, TT: tt, Flow: d.Flow, Name: name})
		}
	}
	n := 0
	for _, tgt := range d.Targets {
		n += len(tgt.Keys)
	}
	if d.Control != CtrlNone {
		b := readyBatch{n: n}
		for _, tgt := range d.Targets {
			tt := g.tts[tgt.TT]
			for _, key := range tgt.Keys {
				key = g.canon(key)
				if d.Control == CtrlReduce {
					// A child's partial: fold it into this rank's combiner
					// slot (reduce.go). Partials are single-key deliveries,
					// and the fold consumes them, so a recv-view lease on
					// one ends here.
					endViewLease(d.Value)
					b.add(g, g.foldPartial(tt, tgt.Term, key, d.Value, d.N, -1))
					continue
				}
				b.add(g, g.landControl(tt, tgt.Term, key, d.Control, d.N, -1))
			}
		}
		b.submit(g, -1)
		return
	}
	// As in routeEdges, the common delivery (one target, one key, at most
	// one task made ready) lists its landings on the stack.
	var buf [stackLandings]localTarget
	ls := buf[:0]
	var fo *fanout
	if n > len(buf) {
		fo = g.getFanout(n)
		ls = fo.locals[:0]
	}
	for _, tgt := range d.Targets {
		tt := g.tts[tgt.TT]
		if tt.inputs[tgt.Term].Reducer != nil {
			// The point-to-point baseline the reduce tree replaces: a
			// remote data delivery landing on a streaming terminal.
			g.exec.Tracer().RemoteReducerMsgs.Add(int64(len(tgt.Keys)))
		}
		for _, key := range tgt.Keys {
			ls = append(ls, localTarget{consumer{tt, tgt.Term}, g.canon(key)})
		}
	}
	g.land(ls, d.Value, d.Mode, ownArrival, d.Exclusive, -1, fo)
}

// owner says who holds a value that lands on this rank's terminals, apart
// from the consumers it lands on.
type owner uint8

const (
	// ownSender: a local Copy or Borrow. The sender keeps the object.
	ownSender owner = iota
	// ownRuntime: a local Move. The sender gave the object up.
	ownRuntime
	// ownArrival: a delivery off the wire. The object is the runtime's,
	// and already a copy of the sender's.
	ownArrival
)

// joins reports whether the consumer behind in shares a tracked handle
// when one is built for a landing of mode: every non-reducer consumer of a
// Move, and for Copy and Borrow the terminals that declared an access
// mode. Reducers fold at delivery, before any task start could resolve a
// handle, so they never join.
func joins(in *InputSpec, mode SendMode) bool {
	return in.Reducer == nil && (mode == SendMove || in.Access != AccessDefault)
}

// land hands value to every landing ls and submits the tasks that became
// ready as one batch. It is the one place that decides which landing gets
// the object itself, which share a tracked handle and which get a clone
// (DESIGN §8), for local sends and wire arrivals alike:
//
//   - A sender that borrows keeps the object and, under a sharing runtime
//     (TracksData), lends it: every landing but a declared writer reads
//     it in place.
//   - Otherwise, under a sharing runtime, the joining landings share one
//     handle when that leaves the object with two holders or more; the
//     sender, when it keeps the object, is one of them. reclaim is the
//     handle's: the object is the runtime's outright.
//   - With no handle, a runtime-owned object goes to the first landing
//     itself.
//   - Every other landing gets a clone.
//
// land takes over fo (nil, or the fanout backing ls) and recycles it.
func (g *Graph) land(ls []localTarget, value any, mode SendMode, own owner, reclaim bool, worker int, fo *fanout) {
	tr := g.exec.Tracer()
	shares := g.exec.TracksData()
	lend := shares && own == ownSender && mode == SendBorrow
	var h *tracked
	if shares && !lend {
		n := 0
		for _, l := range ls {
			if joins(&l.c.tt.inputs[l.c.term], mode) {
				n++
			}
		}
		// Two holders or more: the joiners, and a sender that keeps the
		// object.
		if n >= 2 || n == 1 && own == ownSender {
			h = newTracked(value, n, reclaim)
		}
	}
	raw := own != ownSender && h == nil // the object itself is still to hand out
	b := readyBatch{fo: fo, n: len(ls)}
	for _, l := range ls {
		tt, term := l.c.tt, l.c.term
		in := &tt.inputs[term]
		var v any
		switch {
		case h != nil && joins(in, mode):
			v = h
		case lend && in.Access != ReadWrite:
			v = value
			tr.CopiesAvoided.Add(1)
		case raw:
			v, raw = value, false
			if own == ownRuntime {
				tr.CopiesAvoided.Add(1)
			}
			if in.Reducer != nil {
				// Folded below, the object never reaches a task's
				// materialize: its recv-view lease ends now.
				endViewLease(v)
			}
		default:
			v = cloneFor(in, value, tr)
		}
		if in.Reducer != nil && g.combines(tt, term) {
			// Local pre-reduction: fold into the combiner slot instead of
			// taking a match-table trip (and, for remote-bound streams,
			// instead of sending this contribution on its own).
			b.add(g, g.foldLocal(tt, term, l.key, v, worker))
			continue
		}
		b.add(g, g.deliverLocal(tt, term, l.key, v, worker))
	}
	b.submit(g, worker)
}

// readyBatch collects the tasks one landing made ready, so a fan-out of n
// successors pays one scheduler handoff. The first ready task is held
// apart, so the by-far-common outcomes (none or one ready) never touch a
// slice; the rest collect in a fanout's batch, which has room for one per
// landing.
type readyBatch struct {
	first *Task
	extra []*Task
	fo    *fanout
	n     int // landings: the most tasks the batch can collect
}

func (b *readyBatch) add(g *Graph, t *Task) {
	if t == nil {
		return
	}
	if b.first == nil {
		b.first = t
		return
	}
	if b.extra == nil {
		if b.fo == nil {
			b.fo = g.getFanout(max(b.n, stackLandings))
		}
		b.extra = b.fo.ready[:0]
	}
	b.extra = append(b.extra, t)
}

// submit hands the batch to the scheduler and recycles its fanout.
func (b *readyBatch) submit(g *Graph, worker int) {
	switch {
	case b.first == nil:
	case len(b.extra) == 0:
		g.submitOne(b.first, worker)
	default:
		// Position in the batch is not semantic — the scheduler's run-next
		// slot claims the highest-priority member and the queues order by
		// policy, not batch index. SubmitBatch may not keep the slice.
		g.submitReady(append(b.extra, b.first), worker)
	}
	if fo := b.fo; fo != nil {
		// Scrub all a landing this wide can have written.
		clear(fo.locals[:b.n])
		clear(fo.ready[:b.n])
		g.fanouts.Put(fo)
	}
}

// deliverLocal lands a value on one terminal instance and returns the task
// if it became ready (the caller submits, possibly batched).
func (g *Graph) deliverLocal(tt *TT, term int, key Key, value any, worker int) *Task {
	spec := &tt.inputs[term]
	if o := g.obs; o != nil {
		o.Record(obs.Event{Kind: obs.EvTerminalMatch, Worker: int32(worker),
			TT: int32(tt.id), Name: tt.name, Key: key.String()})
		if spec.Reducer != nil {
			o.Record(obs.Event{Kind: obs.EvReduceFold, Worker: int32(worker),
				TT: int32(tt.id), Name: tt.name})
		}
	}
	g.exec.Tracer().MatchOps.Add(1)
	if d := tt.dense; d != nil {
		if i := d.index(key); i >= 0 {
			return g.deliverDense(tt, term, key, i, value, worker)
		}
	}
	h := key.hash()
	sp := tt.match.shard(h)
	sp.mu.Lock()
	sh := tt.getShellLocked(sp, key, h)
	if spec.Reducer == nil {
		if sh.satisfied&(1<<uint(term)) != 0 {
			sp.mu.Unlock()
			panic(fmt.Sprintf("core: TT %q key %v terminal %d received a second message (non-streaming)", tt.name, key, term))
		}
		*sh.input(term) = value
		sh.satisfied |= 1 << uint(term)
	} else {
		in := sh.input(term)
		*in = spec.Reducer(*in, value)
		x := sh.ext
		x.counts[term]++
		if x.targets[term] >= 0 && x.counts[term] >= x.targets[term] {
			sh.satisfied |= 1 << uint(term)
		}
	}
	return g.maybeReadyLocked(tt, sp, sh, h, worker)
}

// refuseFinalize panics on a finalize addressed to a commutative terminal.
func (g *Graph) refuseFinalize(tt *TT, term int, ctrl ControlKind) {
	if ctrl == CtrlFinalize && g.combines(tt, term) {
		panic(fmt.Sprintf("core: finalize (ttg Finalize/SeedFinalize, core FinalizeEdge/FinalizeSeed) "+
			"on commutative terminal %d of TT %q: hierarchical reduction parks partials, so a finalize races them; "+
			"close the stream by count (StreamSize or SetStreamSize) instead", term, tt.name))
	}
}

// landControl lands a finalize or set-size on one local terminal instance
// and returns the task if the control made it ready. A set-size lands
// after the parked partial: a watermark comparison against a
// half-absorbed count would either fire early or leave the accumulator
// behind.
func (g *Graph) landControl(tt *TT, term int, key Key, ctrl ControlKind, n int, worker int) *Task {
	g.refuseFinalize(tt, term, ctrl)
	if ctrl == CtrlSetSize {
		g.flushKeySlot(tt, term, key, worker)
	}
	return g.applyControl(tt, term, key, ctrl, n, worker)
}

// applyControl handles finalize/set-size for a streaming terminal instance
// and returns the task if the control made it ready.
func (g *Graph) applyControl(tt *TT, term int, key Key, ctrl ControlKind, n int, worker int) *Task {
	if tt.inputs[term].Reducer == nil {
		panic(fmt.Sprintf("core: stream control on non-streaming terminal %d of TT %q", term, tt.name))
	}
	g.exec.Tracer().MatchOps.Add(1)
	h := key.hash()
	sp := tt.match.shard(h)
	sp.mu.Lock()
	sh := tt.getShellLocked(sp, key, h)
	switch ctrl {
	case CtrlFinalize:
		sh.satisfied |= 1 << uint(term)
	case CtrlSetSize:
		sh.ext.targets[term] = n
		if sh.ext.counts[term] >= n {
			sh.satisfied |= 1 << uint(term)
		}
	}
	return g.maybeReadyLocked(tt, sp, sh, h, worker)
}

// getShellLocked finds or creates the accumulation shell for a key, whose
// hash h chose shard sp, reusing a retired shell from the shard's free
// list when one is available. Callers hold sp.mu.
func (tt *TT) getShellLocked(sp *matchShard, key Key, h uint64) *shell {
	sh, slot := sp.table.find(key, h)
	if sh != nil {
		return sh
	}
	if sh = sp.free; sh != nil {
		sp.free = sh.next
		sh.next = nil
	} else {
		sh = tt.newShell()
	}
	sh.key = key
	if tt.streaming {
		// Per-key stream targets; a recycled shell's belong to its
		// previous key.
		x := sh.ext
		for i := range tt.inputs {
			x.targets[i] = 0
			if tt.inputs[i].Reducer == nil {
				continue
			}
			x.targets[i] = -1
			if f := tt.inputs[i].StreamSize; f != nil {
				x.targets[i] = f(key)
				if x.targets[i] == 0 {
					sh.satisfied |= 1 << uint(i)
				}
			}
		}
	}
	sp.table.insert(slot, h, sh)
	tt.match.live.Add(1)
	return sh
}

// maybeReadyLocked checks for completion, and if ready removes the shell
// (its key hashes to h), moves its inputs into a task from the shard's free
// list, and returns the task for submission; the shell itself goes straight
// back to the free list. It releases sp.mu in all paths.
func (g *Graph) maybeReadyLocked(tt *TT, sp *matchShard, sh *shell, h uint64, worker int) *Task {
	n := len(tt.inputs)
	if sh.satisfied != uint64(1)<<uint(n)-1 {
		sp.mu.Unlock()
		return nil
	}
	sp.table.remove(sh, h)
	key := sh.key
	t := sp.takeTask(n)
	copy(t.Inputs, sh.in[:min(n, inlineInputs)])
	if n > inlineInputs {
		copy(t.Inputs[inlineInputs:], sh.ext.more)
	}
	sh.scrub()
	sh.next = sp.free
	sp.free = sh
	tt.match.live.Add(-1)
	sp.mu.Unlock()
	t.TT, t.Key, t.Priority, t.Origin = tt, key, tt.Priority(key), worker
	return t
}

// submitOne activates and submits a single ready task.
func (g *Graph) submitOne(t *Task, worker int) {
	g.recordActivate(t, worker)
	g.exec.Activate()
	g.exec.Submit(t)
}

// submitReady activates and submits a set of tasks that became ready in
// one send; a fan-out of n tasks reaches the scheduler in one batch.
func (g *Graph) submitReady(ts []*Task, worker int) {
	switch len(ts) {
	case 0:
	case 1:
		g.submitOne(ts[0], worker)
	default:
		for _, t := range ts {
			g.recordActivate(t, worker)
			g.exec.Activate()
		}
		g.exec.SubmitBatch(ts)
	}
}

// recordActivate emits the task-activate event and stamps the task for the
// match→exec delay histogram.
func (g *Graph) recordActivate(t *Task, worker int) {
	o := g.obs
	if o == nil {
		return
	}
	t.activatedNs = o.Now()
	o.Record(obs.Event{Kind: obs.EvTaskActivate, Worker: int32(worker),
		TT: int32(t.TT.id), TS: t.activatedNs, Name: t.TT.name, Key: t.Key.String()})
}
