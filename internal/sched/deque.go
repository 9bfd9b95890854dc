package sched

import "sync/atomic"

// Deque is a Chase–Lev lock-free work-stealing deque. The owning worker
// pushes and pops at the bottom (LIFO, for locality); thieves steal from
// the top (FIFO, taking the oldest — usually largest — work). The owner
// never takes a lock; a steal is one CAS on top. The ring buffer grows and
// shrinks on the owner side, so a deque that spiked during a fan-out burst
// gives its memory back.
//
// Items are stored boxed (*Item) behind atomic pointers. Boxing costs one
// small allocation per push, but it is what makes the structure exact
// under the race detector and safe under ABA: a thief that loaded a box
// and then wins the CAS on top owns that box outright, even if the owner
// has since resized the ring — both rings reference the same boxes.
//
// Ownership contract: PushBottom, PushBottomBatch and PopBottom may only
// be called from the single owner goroutine; Steal and Len are safe from
// any goroutine.
type Deque struct {
	top     atomic.Int64
	_       [56]byte // keep top and bottom on separate cache lines
	bottom  atomic.Int64
	_       [56]byte
	buf     atomic.Pointer[dqRing]
	scrubAt int64 // owner-private: skip drainDead when nothing was pushed since
}

const dqMinCap = 64

type dqRing struct {
	mask int64
	slot []atomic.Pointer[Item]
}

func newRing(capacity int64) *dqRing {
	return &dqRing{mask: capacity - 1, slot: make([]atomic.Pointer[Item], capacity)}
}

func (r *dqRing) cap() int64 { return r.mask + 1 }

func (r *dqRing) load(i int64) *Item { return r.slot[i&r.mask].Load() }

func (r *dqRing) store(i int64, it *Item) { r.slot[i&r.mask].Store(it) }

// NewDeque returns an empty deque.
func NewDeque() *Deque {
	d := &Deque{}
	d.buf.Store(newRing(dqMinCap))
	return d
}

// PushBottom adds an item at the owner's end. Owner-only.
func (d *Deque) PushBottom(it Item) {
	b := d.bottom.Load()
	t := d.top.Load()
	r := d.buf.Load()
	if b-t >= r.cap() {
		r = d.resize(r, t, b, r.cap()*2)
	}
	boxed := it
	r.store(b, &boxed)
	d.bottom.Store(b + 1)
}

// PushBottomBatch adds a run of items at the owner's end with a single
// capacity check and one backing allocation for all the boxes. Owner-only.
// The boxes share one array, so it stays reachable until every item in the
// batch has been consumed — fine for fan-out-sized batches.
func (d *Deque) PushBottomBatch(items []Item) {
	n := int64(len(items))
	if n == 0 {
		return
	}
	b := d.bottom.Load()
	t := d.top.Load()
	r := d.buf.Load()
	if b-t+n > r.cap() {
		newCap := r.cap() * 2
		for b-t+n > newCap {
			newCap *= 2
		}
		r = d.resize(r, t, b, newCap)
	}
	// One fresh slab per batch. Do not recycle it: a thief that loaded an
	// *Item from the ring may still be reading it after the owner pops or
	// the slot is overwritten, so the memory must stay the GC's to free.
	boxed := make([]Item, n)
	copy(boxed, items)
	for i := int64(0); i < n; i++ {
		r.store(b+i, &boxed[i])
	}
	d.bottom.Store(b + n)
}

// PopBottom removes the most recently pushed item. Owner-only.
func (d *Deque) PopBottom() (Item, bool) {
	b := d.bottom.Load() - 1
	r := d.buf.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty; restore bottom and release anything the ring still pins.
		d.bottom.Store(b + 1)
		d.drainDead(r, b+1)
		return Item{}, false
	}
	box := r.load(b)
	if t == b {
		// Last item: race the thieves for it via top.
		won := d.top.CompareAndSwap(t, t+1)
		d.bottom.Store(b + 1)
		if !won {
			d.drainDead(r, b+1)
			return Item{}, false
		}
		d.drainDead(r, b+1)
		return *box, true
	}
	// More than one item left: index b is exclusively ours (thieves only
	// claim indices < b), so clear the slot and maybe shrink.
	r.store(b, nil)
	if c := r.cap(); c > dqMinCap && (b-t)*4 < c {
		d.resize(r, t, b, c/2)
	}
	return *box, true
}

// Steal removes the oldest item. Safe from any goroutine.
func (d *Deque) Steal() (Item, bool) {
	for {
		t := d.top.Load()
		b := d.bottom.Load()
		if t >= b {
			return Item{}, false
		}
		r := d.buf.Load()
		box := r.load(t)
		if !d.top.CompareAndSwap(t, t+1) {
			continue // lost the race for t; retry with a fresh view
		}
		// Winning the CAS guarantees box was the live entry at t: slots are
		// only cleared by the owner for indices it exclusively holds
		// (bottom end) or after the deque was observed empty, and either
		// way top had already moved past t, which would have failed the CAS.
		if box == nil {
			panic("sched: Chase-Lev deque stole a cleared slot")
		}
		// Thieves must not write slots: index t may already be reused by
		// the owner one lap later. The box simply becomes unreachable once
		// the owner overwrites or drains the slot.
		return *box, true
	}
}

// Len returns a point-in-time size estimate. Safe from any goroutine.
func (d *Deque) Len() int {
	b := d.bottom.Load()
	t := d.top.Load()
	if b < t {
		return 0
	}
	return int(b - t)
}

// resize installs a ring of newCap, copying the live window [t, b).
// Owner-only. Thieves holding the old ring still resolve the same boxes;
// entries concurrently stolen during the copy are dead weight in the new
// ring and are dropped at the next resize or drain.
func (d *Deque) resize(old *dqRing, t, b, newCap int64) *dqRing {
	r := newRing(newCap)
	for i := t; i < b; i++ {
		r.store(i, old.load(i))
	}
	d.buf.Store(r)
	return r
}

// drainDead clears every slot once the owner has observed the deque empty
// at bottom position b. With no live entries, all remaining boxes are
// either consumed or dead, and nil-ing the slots cannot corrupt a thief: a
// thief that loaded a box before the clear still holds its own reference,
// and one that reads nil afterwards is guaranteed to fail its CAS on top.
// This is what lets a steal-heavy run release Items from the top end too.
func (d *Deque) drainDead(r *dqRing, b int64) {
	if d.scrubAt == b {
		return // nothing pushed since the last drain at this position
	}
	for i := range r.slot {
		if r.slot[i].Load() != nil {
			r.slot[i].Store(nil)
		}
	}
	if c := r.cap(); c > dqMinCap {
		d.buf.Store(newRing(dqMinCap))
	}
	d.scrubAt = b
}
