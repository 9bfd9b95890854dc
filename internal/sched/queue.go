// Package sched provides the worker pool of the runtime engine and its two
// queue disciplines: banded priority work stealing (per-worker Chase-Lev
// deques with a shared Banded queue for outside submissions) for the
// PaRSEC-model preset and one shared FIFO for the MADNESS-model preset.
// The exact-order Priority heap is not a pool discipline: it is the ready
// queue of the virtual-time backend (backend/sim) and the reference the
// Banded ordering is tested against.
package sched

import (
	"container/heap"
	"sync"
)

// Item is a schedulable unit with an optional priority; larger priorities
// run first (the paper's priority maps assign priorities per task ID).
type Item struct {
	Priority int64
	Value    any
}

// Queue is the interface shared by the scheduler implementations.
type Queue interface {
	// Push enqueues an item.
	Push(it Item)
	// PushBatch enqueues a run of items under one synchronization.
	PushBatch(its []Item)
	// Pop removes the next item per the queue's policy; ok is false when
	// the queue is empty.
	Pop() (Item, bool)
	// Len returns the number of queued items.
	Len() int
}

// FIFO is a mutex-protected first-in-first-out queue (the MADNESS-model
// pool's task queue).
type FIFO struct {
	mu    sync.Mutex
	items []Item
	head  int
}

// NewFIFO returns an empty FIFO queue.
func NewFIFO() *FIFO { return &FIFO{} }

func (q *FIFO) Push(it Item) {
	q.mu.Lock()
	q.items = append(q.items, it)
	q.mu.Unlock()
}

// PushBatch enqueues a run of items under one lock acquisition.
func (q *FIFO) PushBatch(its []Item) {
	q.mu.Lock()
	q.items = append(q.items, its...)
	q.mu.Unlock()
}

func (q *FIFO) Pop() (Item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head >= len(q.items) {
		// Drained: drop a grown backing array instead of pinning it.
		if cap(q.items) > 1024 {
			q.items = nil
		} else {
			q.items = q.items[:0]
		}
		q.head = 0
		return Item{}, false
	}
	it := q.items[q.head]
	q.items[q.head] = Item{}
	q.head++
	if q.head > 64 && q.head*2 >= len(q.items) {
		live := len(q.items) - q.head
		if c := cap(q.items); c > 1024 && c > 4*live {
			// Mostly dead capacity: reallocate so the GC can reclaim the
			// large array rather than sliding items within it.
			fresh := make([]Item, live, 2*live)
			copy(fresh, q.items[q.head:])
			q.items = fresh
		} else {
			q.items = append(q.items[:0], q.items[q.head:]...)
		}
		q.head = 0
	}
	return it, true
}

func (q *FIFO) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}

// Priority is a max-heap by priority with FIFO tie-breaking: exact
// priority-map order (backend/sim's ready queue).
type Priority struct {
	mu  sync.Mutex
	h   prioHeap
	seq uint64
}

// NewPriority returns an empty priority queue.
func NewPriority() *Priority { return &Priority{} }

type prioItem struct {
	Item
	seq uint64
}

type prioHeap []prioItem

func (h prioHeap) Len() int { return len(h) }
func (h prioHeap) Less(i, j int) bool {
	if h[i].Priority != h[j].Priority {
		return h[i].Priority > h[j].Priority
	}
	return h[i].seq < h[j].seq
}
func (h prioHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *prioHeap) Push(x any)   { *h = append(*h, x.(prioItem)) }
func (h *prioHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = prioItem{}
	*h = old[:n-1]
	return it
}

func (q *Priority) Push(it Item) {
	q.mu.Lock()
	heap.Push(&q.h, prioItem{Item: it, seq: q.seq})
	q.seq++
	q.mu.Unlock()
}

// PushBatch enqueues a run of items under one lock acquisition.
func (q *Priority) PushBatch(its []Item) {
	q.mu.Lock()
	for _, it := range its {
		heap.Push(&q.h, prioItem{Item: it, seq: q.seq})
		q.seq++
	}
	q.mu.Unlock()
}

func (q *Priority) Pop() (Item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.h) == 0 {
		return Item{}, false
	}
	return heap.Pop(&q.h).(prioItem).Item, true
}

func (q *Priority) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.h)
}
