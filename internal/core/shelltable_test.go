package core

import (
	"math/rand"
	"testing"
)

// entry is what the reference map holds for a live key.
type entry struct {
	sh   *shell
	hash uint64
}

// checkTable verifies t against the reference: the count, that no more
// than 3/4 of the slots are full, that every slot holds a live entry under
// its own hash, and that every live entry is findable from its home.
func checkTable(tb testing.TB, t *shellTable, ref map[Key]entry) {
	tb.Helper()
	if t.n != len(ref) {
		tb.Fatalf("n = %d, reference holds %d", t.n, len(ref))
	}
	if 4*t.n > 3*len(t.slots) {
		tb.Fatalf("%d entries in %d slots: past 3/4 load", t.n, len(t.slots))
	}
	used := 0
	for _, s := range t.slots {
		if s.sh == nil {
			continue
		}
		used++
		if ref[s.sh.key] != (entry{s.sh, s.hash}) {
			tb.Fatalf("slot holds %v (hash %#x), not a live entry", s.sh.key, s.hash)
		}
	}
	if used != t.n {
		tb.Fatalf("%d slots in use, n = %d", used, t.n)
	}
	for k, e := range ref {
		if got, _ := t.find(k, e.hash); got != e.sh {
			tb.Fatalf("find(%v) = %p, want %p", k, got, e.sh)
		}
	}
}

// TestShellTable runs random insert/find/remove sequences against a map.
// The hashes are chosen so entries pile onto four home slots — the last
// two and the first two at every table size, so probe runs wrap past the
// end of the array — and many keys share a whole hash, so a probe must
// compare keys after hashes.
func TestShellTable(t *testing.T) {
	homes := []uint64{0xffffffff, 0xfffffffe, 0, 1}
	hashOf := func(id int) uint64 { return homes[id%len(homes)]<<32 | uint64(id%7) }
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab shellTable
		ref := map[Key]entry{}
		var live []Key
		next := 0
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(10); {
			case op < 5 || len(live) == 0: // insert a new key
				k := KeyOf(next)
				h := hashOf(next)
				next++
				sh, i := tab.find(k, h)
				if sh != nil {
					t.Fatalf("seed %d step %d: fresh key %v found", seed, step, k)
				}
				sh = &shell{key: k}
				tab.insert(i, h, sh)
				ref[k] = entry{sh, h}
				live = append(live, k)
			case op < 7: // find a live key
				k := live[rng.Intn(len(live))]
				if sh, _ := tab.find(k, ref[k].hash); sh != ref[k].sh {
					t.Fatalf("seed %d step %d: find(%v) = %p, want %p", seed, step, k, sh, ref[k].sh)
				}
			default: // remove a live key
				j := rng.Intn(len(live))
				k := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				e := ref[k]
				tab.remove(e.sh, e.hash)
				delete(ref, k)
				if sh, _ := tab.find(k, e.hash); sh != nil {
					t.Fatalf("seed %d step %d: removed %v still found", seed, step, k)
				}
			}
			checkTable(t, &tab, ref)
		}
	}
}

// TestShellTableGrowth fills a table through many doublings, half the
// entries on one piled-up home and half spread, then drains it: growth
// under load keeps every entry, and removal leaves the rest findable.
func TestShellTableGrowth(t *testing.T) {
	var tab shellTable
	ref := map[Key]entry{}
	const n = 5000
	for id := range n {
		k := KeyOf(id)
		h := k.hash()
		if id%2 == 0 {
			h = 0xffffffff<<32 | uint64(id)
		}
		sh, i := tab.find(k, h)
		if sh != nil {
			t.Fatalf("fresh key %v found", k)
		}
		sh = &shell{key: k}
		tab.insert(i, h, sh)
		ref[k] = entry{sh, h}
	}
	checkTable(t, &tab, ref)
	if len(tab.slots) < n*4/3 {
		t.Fatalf("%d entries in %d slots", n, len(tab.slots))
	}
	for id := 0; id < n; id += 3 {
		k := KeyOf(id)
		tab.remove(ref[k].sh, ref[k].hash)
		delete(ref, k)
	}
	checkTable(t, &tab, ref)
}
