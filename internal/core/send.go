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
		if ctrl == CtrlFinalize && g.combines(cons.tt, cons.term) {
			panic(finalizeCommutative(cons.tt, cons.term))
		}
		dst := cons.tt.keymap(key)
		if dst == me {
			if ctrl == CtrlSetSize {
				// The control must land after the parked partial: a
				// watermark comparison against a half-absorbed count would
				// either fire early or leave the accumulator behind.
				g.flushKeySlot(cons.tt, cons.term, key, worker)
			}
			if t := g.applyControl(cons.tt, cons.term, key, ctrl, n, worker); t != nil {
				g.submitOne(t, worker)
			}
			continue
		}
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
	// As in routeEdges, the common delivery (one target, one key, at most
	// one task made ready) must not allocate a slice for the batch.
	var first *Task
	var extra []*Task
	g.injectCollect(d, &first, &extra)
	g.submitCollected(first, extra)
}

// injectCollect lands one delivery and accumulates any tasks it made ready.
func (g *Graph) injectCollect(d Delivery, first **Task, extra *[]*Task) {
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
	add := func(t *Task) {
		if *first == nil {
			*first = t
		} else {
			*extra = append(*extra, t)
		}
	}
	// Under a data-tracking runtime a multi-key data delivery shares one
	// tracked handle: the deserialized object satisfies every local task
	// ID, each resolving it per its terminal's access mode, instead of one
	// clone per key after the first. Deliveries flagged Exclusive hand the
	// object to the runtime outright, so pooled payloads are reclaimed at
	// the last drop.
	// Handle membership follows the same predicate as local fan-out
	// (routeEdges): a moved value is shared by every non-reducer consumer;
	// a copied or borrowed one only by terminals that declared an access
	// mode. Default-access consumers keep the legacy per-key clones.
	joins := func(tt *TT, term int) bool {
		in := &tt.inputs[term]
		return in.Reducer == nil && (d.Mode == SendMove || in.Access != AccessDefault)
	}
	var h *tracked
	if d.Control == CtrlNone && g.exec.TracksData() {
		n := 0
		for _, tgt := range d.Targets {
			if joins(g.tts[tgt.TT], tgt.Term) {
				n += len(tgt.Keys)
			}
		}
		if n >= 2 {
			h = newTracked(d.Value, n, d.Exclusive)
		}
	}
	for _, tgt := range d.Targets {
		tt := g.tts[tgt.TT]
		for i, key := range tgt.Keys {
			key = g.canon(key)
			if d.Control == CtrlReduce {
				// A child's partial: fold it into this rank's combiner slot
				// (reduce.go). Values of later keys never alias — partials
				// are always single-key deliveries. The fold consumes the
				// partial, so a recv-view lease on it ends here.
				endViewLease(d.Value)
				if t := g.foldPartial(tt, tgt.Term, key, d.Value, d.N, -1); t != nil {
					add(t)
				}
				continue
			}
			if d.Control != CtrlNone {
				// controlEdge refused this at the sender; these bytes
				// came from a peer.
				if d.Control == CtrlFinalize && g.combines(tt, tgt.Term) {
					panic(finalizeCommutative(tt, tgt.Term))
				}
				if d.Control == CtrlSetSize {
					// As in controlEdge: absorb the parked partial before
					// the stream length lands on the shell.
					g.flushKeySlot(tt, tgt.Term, key, -1)
				}
				if t := g.applyControl(tt, tgt.Term, key, d.Control, d.N, -1); t != nil {
					add(t)
				}
				continue
			}
			if tt.inputs[tgt.Term].Reducer != nil {
				// The point-to-point baseline the reduce tree replaces: a
				// remote data delivery landing on a streaming terminal.
				g.exec.Tracer().RemoteReducerMsgs.Add(1)
			}
			var v any
			raw := false
			switch {
			case h != nil && joins(tt, tgt.Term):
				v = h
			case h != nil || i > 0:
				// The raw object is taken: it aliases the consumers that
				// joined the handle (reducer folds and default-access
				// consumers can't), or satisfied this target's first task
				// ID. Everyone else gets a copy of their own.
				v = cloneFor(&tt.inputs[tgt.Term], d.Value, g.exec.Tracer())
			default:
				v = d.Value
				raw = true
			}
			if raw && tt.inputs[tgt.Term].Reducer != nil {
				// The raw value is folded at delivery below and never
				// reaches a task's materialize; end its lease now. (A raw
				// value landing on a plain terminal keeps its lease until
				// the consuming task starts.)
				endViewLease(v)
			}
			if t := g.deliverLocal(tt, tgt.Term, key, v, -1); t != nil {
				add(t)
			}
		}
	}
}

func (g *Graph) submitCollected(first *Task, extra []*Task) {
	if first == nil {
		return
	}
	if len(extra) == 0 {
		g.submitOne(first, -1)
		return
	}
	// As in routeEdges: append into extra's spare capacity instead of
	// building a fresh merged slice; batch position carries no ordering.
	g.submitReady(append(extra, first), -1)
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

// finalizeCommutative is the panic of a finalize addressed to a
// commutative terminal.
func finalizeCommutative(tt *TT, term int) string {
	return fmt.Sprintf("core: finalize (ttg Finalize/SeedFinalize, core FinalizeEdge/FinalizeSeed) "+
		"on commutative terminal %d of TT %q: hierarchical reduction parks partials, so a finalize races them; "+
		"close the stream by count (StreamSize or SetStreamSize) instead", term, tt.name)
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
