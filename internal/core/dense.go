package core

import (
	"fmt"
	"sync/atomic"
)

// Dense join slots. A template whose task IDs fill a box known when the
// graph is built (a Cholesky's (i, j, k) with k < j < i < nt) can match
// without the shell table: the application numbers the box, and a
// delivery stores its value in the key's slot and adds its terminal's bit
// to the slot's atomic mask. The add that fills the mask completes the
// task. There is no hash, no shard lock and no shell per delivery; the
// one lock a task pays is its shard's Task free list. Keys outside the box
// take the table.
//
// A slot is reset only when its task is taken, by the delivery that
// completed it: it copies the inputs out, clears them, and stores the
// mask last. A key therefore runs at most once at a time, as in the
// table; a delivery racing that reset for the same key would be a second
// message to a task that is being created, which the table would instead
// park on a fresh shell. Declare a box only for templates whose keys
// each run once.

// DenseKeys declares a template's key box. Index numbers a key in
// [0, Slots), or returns any value outside that range for a key outside
// the box; KeyAt inverts it, so diagnostics can name a waiting key
// without a key stored per slot.
type DenseKeys struct {
	Slots int
	Index func(Key) int
	KeyAt func(int) Key
}

// densePageBits sizes a page of slots. A page is allocated when a
// delivery first reaches it, so a rank pays only for the part of the box
// its keys reach, and a small box allocates only what it declares.
const (
	densePageBits  = 10
	densePageSlots = 1 << densePageBits
)

// densePage is one page of slots: n inputs per slot, and one mask of
// arrived terminals per slot.
type densePage struct {
	mask []atomic.Uint64
	in   []any
}

// denseSlots is one template's slot array.
type denseSlots struct {
	keys  DenseKeys
	n     int    // inputs per slot
	full  uint64 // the mask of a slot whose every input has arrived
	pages []atomic.Pointer[densePage]
}

// newDenseSlots returns the slot array of a template with n inputs, or
// nil when the box is empty. AddTT has checked the declaration.
func newDenseSlots(dk *DenseKeys, n int) *denseSlots {
	if dk == nil || dk.Slots == 0 {
		return nil
	}
	return &denseSlots{
		keys:  *dk,
		n:     n,
		full:  uint64(1)<<uint(n) - 1,
		pages: make([]atomic.Pointer[densePage], (dk.Slots+densePageSlots-1)>>densePageBits),
	}
}

// checkDense refuses a bad box declaration at AddTT.
func checkDense(spec *TTSpec) {
	dk := spec.Dense
	if dk == nil {
		return
	}
	if dk.Slots < 0 {
		panic(fmt.Sprintf("core: TT %q declares a key box of %d slots", spec.Name, dk.Slots))
	}
	if dk.Slots > 0 && (dk.Index == nil || dk.KeyAt == nil) {
		panic(fmt.Sprintf("core: TT %q declares a key box without both Index and KeyAt", spec.Name))
	}
	for term, in := range spec.Inputs {
		if in.Reducer != nil {
			panic(fmt.Sprintf("core: TT %q declares a key box but input %d is streaming", spec.Name, term))
		}
	}
}

// index returns key's slot, or -1 when the key is outside the box.
func (d *denseSlots) index(key Key) int {
	if i := d.keys.Index(key); uint(i) < uint(d.keys.Slots) {
		return i
	}
	return -1
}

// page returns page p, allocating it on first touch. Racing first
// touches allocate one page each; the CAS keeps one of them.
func (d *denseSlots) page(p int) *densePage {
	if pg := d.pages[p].Load(); pg != nil {
		return pg
	}
	n := min(densePageSlots, d.keys.Slots-p<<densePageBits)
	pg := &densePage{mask: make([]atomic.Uint64, n), in: make([]any, n*d.n)}
	if d.pages[p].CompareAndSwap(nil, pg) {
		return pg
	}
	return d.pages[p].Load()
}

// deliverDense lands a value on terminal term of the task in slot i and
// returns the task if this delivery completed it. The value is stored
// before the bit is added, so the delivery whose add fills the mask sees
// every input.
func (g *Graph) deliverDense(tt *TT, term int, key Key, i int, value any, worker int) *Task {
	d := tt.dense
	pg := d.page(i >> densePageBits)
	j := i & (densePageSlots - 1)
	in := pg.in[j*d.n : j*d.n+d.n]
	in[term] = value
	bit := uint64(1) << uint(term)
	m := pg.mask[j].Add(bit)
	if (m-bit)&bit != 0 {
		panic(fmt.Sprintf("core: TT %q key %v terminal %d received a second message (non-streaming)", tt.name, key, term))
	}
	if gauge := g.pendingShells; gauge != nil && bit != d.full {
		switch m {
		case bit:
			gauge.Add(1)
		case d.full:
			gauge.Add(-1)
		}
	}
	if m != d.full {
		return nil
	}
	sp := &tt.match.shards[uint64(i)&tt.match.mask]
	sp.mu.Lock()
	t := sp.takeTask(d.n)
	sp.mu.Unlock()
	copy(t.Inputs, in)
	clear(in)
	pg.mask[j].Store(0)
	t.TT, t.Key, t.Priority, t.Origin = tt, key, tt.Priority(key), worker
	return t
}

// sweep calls f with the slot index and mask of every slot holding some
// but not all of its inputs, until f returns false. It reads the masks
// only, so it takes no lock and races no delivery.
func (d *denseSlots) sweep(f func(i int, mask uint64) bool) {
	for p := range d.pages {
		pg := d.pages[p].Load()
		if pg == nil {
			continue
		}
		for j := range pg.mask {
			if m := pg.mask[j].Load(); m != 0 && m != d.full {
				if !f(p<<densePageBits|j, m) {
					return
				}
			}
		}
	}
}

// pending counts the slots holding some but not all of their inputs.
func (d *denseSlots) pending() int64 {
	var n int64
	d.sweep(func(int, uint64) bool { n++; return true })
	return n
}

// collect appends the fill state of up to max waiting slots (all of them
// when max <= 0) to out.
func (d *denseSlots) collect(g *Graph, max int, out []shellState) []shellState {
	d.sweep(func(i int, m uint64) bool {
		if max > 0 && len(out) >= max {
			return false
		}
		out = append(out, shellState{key: g.canon(d.keys.KeyAt(i)), satisfied: m})
		return true
	})
	return out
}
