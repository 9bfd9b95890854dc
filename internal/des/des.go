// Package des is a discrete-event simulation engine with a virtual clock.
// The sim backend uses it to execute real template task graphs — real
// control flow, keymaps, reducers — while charging task and message costs
// from a calibrated machine model instead of wall time. This is the
// substitution for the paper's Hawk and Seawulf clusters: the quantities
// that shape the scaling figures (DAG critical path, communication volume
// and topology, worker occupancy) are simulated faithfully at up to
// hundreds of virtual nodes on a laptop.
package des

import "container/heap"

// Engine is a virtual-time event loop. It is not safe for concurrent use;
// the sim backend touches it only from the goroutine draining a fence.
type Engine struct {
	h   eventHeap
	now float64
	seq uint64
}

type event struct {
	at  float64
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = event{}
	*h = old[:n-1]
	return e
}

// New returns an engine at virtual time zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn to run dt seconds from now (clamped to now for negative
// dt). Ties run in scheduling order, making the simulation deterministic.
func (e *Engine) At(dt float64, fn func()) {
	if dt < 0 {
		dt = 0
	}
	e.seq++
	heap.Push(&e.h, event{at: e.now + dt, seq: e.seq, fn: fn})
}

// Run drains the event queue, advancing virtual time. Events scheduled by
// running events are processed too; Run returns when no events remain.
func (e *Engine) Run() {
	for len(e.h) > 0 {
		ev := heap.Pop(&e.h).(event)
		e.now = ev.at
		ev.fn()
	}
}

// Pending reports the number of queued events (diagnostics).
func (e *Engine) Pending() int { return len(e.h) }
