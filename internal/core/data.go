package core

import (
	"reflect"
	"sync/atomic"

	"repro/internal/pool"
	"repro/internal/serde"
	"repro/internal/trace"
)

// Runtime-owned data lifetimes. The paper's reworked PaRSEC backend lets
// the runtime own in-flight values so const-ref flows avoid copies; this
// file is that layer for the Go engine. A value fanning out to several
// local consumers travels as ONE refcounted tracked handle instead of
// per-consumer deep clones. Each consuming task resolves the handle when
// it starts, according to the access mode its input terminal declared:
//
//	ReadOnly   share the value for the body's duration (a reader ref is
//	           held until the body returns), never clone.
//	ReadWrite  need an exclusive value: the last live reference takes the
//	           value in place; otherwise clone at task start — copy-on-
//	           write, deferred to the moment a writer actually runs while
//	           other references are live.
//	Default    same exclusive resolution as ReadWrite (safe for bodies
//	           that were written before access modes existed).
//
// Sharing is what Executor.TracksData decides: without it (the MADNESS
// model) every consumer gets its own deep copy when the producer sends.
// Reclamation is universal: when the last reference to a runtime-owned
// value drops (reclaim set: it arrived exclusively off the wire, was moved
// with no remote targets, or is a copy the runtime made for one read-only
// consumer — cloneFor), pooled payloads return to their pool at once.

// AccessMode declares how a task body uses one input terminal's value,
// mirroring the paper's const-ref vs mutable argument flows.
type AccessMode uint8

const (
	// AccessDefault keeps the legacy semantics: the body receives an
	// exclusive value (clone-unless-sole-reference under tracking
	// runtimes, eager clone otherwise). Terminals that retain their input
	// beyond the body should stay on AccessDefault.
	AccessDefault AccessMode = iota
	// ReadOnly promises the body only reads the value during execution;
	// read-only consumers of one send share a single physical copy.
	ReadOnly
	// ReadWrite declares the body mutates the value in place; the runtime
	// materializes an exclusive copy lazily (copy-on-write at task start),
	// and the last consumer always mutates in place.
	ReadWrite
)

func (m AccessMode) String() string {
	switch m {
	case ReadOnly:
		return "ro"
	case ReadWrite:
		return "rw"
	}
	return "default"
}

// tracked is the refcounted handle wrapping one in-flight value. It is
// delivered in place of the value to the consumers of one logical copy
// and resolved per-terminal when each consuming task starts.
type tracked struct {
	value any
	// refs counts consumers that have not yet resolved the handle, plus
	// read-only holds for the duration of their task bodies.
	refs atomic.Int32
	// escaped marks that a holding body re-sent the raw value, so it may
	// outlive this handle; reclamation is then left to the GC.
	escaped atomic.Bool
	// reclaim marks the value as runtime-owned: when the last reference
	// drops, pooled payloads go straight back to their pool.
	reclaim bool
	// private marks a consumer's own copy (cloneFor): resolving the handle
	// shares nothing, so it is not counted as a copy avoided.
	private bool
	// cmp caches whether the value's dynamic type is comparable, so the
	// escape check can test identity without risking a panic.
	cmp bool
}

// liveTracked counts tracked handles whose references have not all been
// resolved yet — a live gauge of runtime-owned in-flight values
// (process-global; the live exporter samples it).
var liveTracked atomic.Int64

// LiveTrackedHandles reports the number of refcounted value handles
// currently live in the data tracker (diagnostics/metrics).
func LiveTrackedHandles() int64 { return liveTracked.Load() }

// newTracked wraps value in a handle carrying refs references.
func newTracked(value any, refs int, reclaim bool) *tracked {
	h := &tracked{value: value, reclaim: reclaim}
	h.refs.Store(int32(refs))
	if value != nil {
		h.cmp = reflect.TypeOf(value).Comparable()
	}
	liveTracked.Add(1)
	return h
}

// cloneFor deep-copies value for the one local consumer behind in, through
// its edge's cached codec, and counts the copy. A copy made for a
// read-only, non-reducer consumer is the runtime's own — the body may only
// read it while it runs — so a pooled one travels in a one-reference
// handle that returns it to its pool after the body (unless the body
// Retains or re-sends it). Other consumers may keep or fold what they
// receive and get the raw copy, as does everyone for the immutable boxes
// Clone passes through, which are still the sender's. A deep copy of a
// serde.SplitMD value adds its payload bytes to tr.BytesCopied, which is
// what the simulator charges as memcpy time (phantom payloads included).
func cloneFor(in *InputSpec, value any, tr *trace.Collector) any {
	tr.DataCopies.Add(1)
	if serde.SharedFast(value) {
		return value
	}
	cc := in.Edge.codecFor(value)
	cl := cc.Clone(value)
	if sm, ok := value.(serde.SplitMD); ok && !cc.Shareable() {
		tr.BytesCopied.Add(int64(sm.PayloadBytes()))
	}
	if _, pooled := cl.(pool.Releasable); pooled && !cc.Shareable() &&
		in.Access == ReadOnly && in.Reducer == nil {
		h := newTracked(cl, 1, true)
		h.private = true
		return h
	}
	return cl
}

// endViewLease retires the recv-view ledger entry of a view-decoded value
// at the moment the runtime stops being responsible for its payload
// memory — the value is reclaimed, consumed by a fold, or handed to the
// application outright. Safe (and a no-op) on any other value; ViewLease
// implementations are idempotent, so overlapping lifecycle paths may both
// call it.
func endViewLease(v any) {
	if vl, ok := v.(serde.ViewLease); ok {
		vl.EndViewLease()
	}
}

// drop releases one reference; the last drop of a runtime-owned value
// returns pooled payloads to their pool. Consumers that took the value in
// place (CAS 1→0) own it outright and never call drop.
func (h *tracked) drop() {
	if h.refs.Add(-1) == 0 {
		liveTracked.Add(-1)
		if h.reclaim && !h.escaped.Load() {
			if r, ok := h.value.(pool.Releasable); ok {
				// Release retires any recv-view lease itself.
				r.Release()
				return
			}
		}
		// Escaped or non-releasable values are left to the GC, but a
		// recv-view lease on them still ends: the runtime no longer
		// accounts for the aliased buffer.
		endViewLease(h.value)
	}
}

// materialize resolves tracked-handle inputs into plain values according
// to each terminal's declared access mode. It runs at the top of
// Task.Execute, on the worker about to run the body — the latest possible
// moment, which is what makes the write path copy-on-write.
func (t *Task) materialize() {
	for i := range t.Inputs {
		h, ok := t.Inputs[i].(*tracked)
		if !ok {
			// A raw input is handed to the body outright; any recv-view
			// lease on it ends here (from now on the application, not the
			// runtime, decides the payload buffer's lifetime).
			endViewLease(t.Inputs[i])
			continue
		}
		tr := t.TT.g.exec.Tracer()
		if t.TT.inputs[i].Access == ReadOnly {
			// Share; hold the reference until the body returns.
			t.Inputs[i] = h.value
			t.holds = append(t.holds, h)
			if !h.private {
				tr.CopiesAvoided.Add(1)
			}
		} else if h.refs.CompareAndSwap(1, 0) {
			// Sole live reference: the exclusive consumer takes the value
			// in place and owns it from here on (never reclaimed); a
			// recv-view lease transfers to the application with it.
			t.Inputs[i] = h.value
			liveTracked.Add(-1)
			endViewLease(h.value)
			tr.CopiesAvoided.Add(1)
		} else {
			// Copy-on-write: other consumers still read the value, so this
			// writer gets its own clone. Clone before dropping the
			// reference — the order keeps the source alive while it is
			// being read.
			t.Inputs[i] = cloneFor(&t.TT.inputs[i], h.value, tr)
			h.drop()
		}
	}
}

// releaseHolds drops the read-only references held for the body's
// duration. Runs after the body in Task.Execute.
func (t *Task) releaseHolds() {
	for i, h := range t.holds {
		h.drop()
		t.holds[i] = nil
	}
}

// noteSend flags held read-only values that the body re-sends: the value
// then escapes this task's lifetime and must not be reclaimed when the
// hold drops. Identity comparison only — a no-op for tasks holding
// nothing, which is the overwhelmingly common case.
func (t *Task) noteSend(v any) {
	for _, h := range t.holds {
		if h.cmp && h.value == v {
			h.escaped.Store(true)
		}
	}
}
