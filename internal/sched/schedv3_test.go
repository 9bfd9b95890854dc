package sched

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within deadline")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDequeStressRandomized is the adversarial coverage for the Chase-Lev
// deque's both-ends memory-release path: one owner doing a random mix of
// PushBottom / PushBottomBatch / PopBottom races several thieves, and
// per-item checksum accounting (distinct values, exact sum) proves every
// pushed item is consumed exactly once — no loss, no duplication — across
// resizes, drains, and last-item CAS races. Run under -race in CI.
func TestDequeStressRandomized(t *testing.T) {
	const (
		thieves = 4
		total   = 150000
	)
	d := NewDeque()
	var gotSum, gotCount atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if it, ok := d.Steal(); ok {
					gotSum.Add(int64(it.Value.(int)))
					gotCount.Add(1)
				} else {
					runtime.Gosched()
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(42))
	var wantSum int64
	next := 1
	pushed := 0
	consume := func(it Item) {
		gotSum.Add(int64(it.Value.(int)))
		gotCount.Add(1)
	}
	for pushed < total {
		switch rng.Intn(4) {
		case 0:
			d.PushBottom(Item{Value: next})
			wantSum += int64(next)
			next++
			pushed++
		case 1:
			n := rng.Intn(33) + 1
			batch := make([]Item, n)
			for i := range batch {
				batch[i] = Item{Value: next}
				wantSum += int64(next)
				next++
			}
			pushed += n
			d.PushBottomBatch(batch)
		default:
			if it, ok := d.PopBottom(); ok {
				consume(it)
			}
		}
	}
	// Drain: anything the owner cannot pop was (or is being) stolen.
	for {
		if it, ok := d.PopBottom(); ok {
			consume(it)
			continue
		}
		if d.Len() == 0 {
			break
		}
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()

	if got := gotCount.Load(); got != int64(pushed) {
		t.Fatalf("consumed %d items, pushed %d", got, pushed)
	}
	if got := gotSum.Load(); got != wantSum {
		t.Fatalf("checksum mismatch: got %d want %d (duplicate or corrupted item)", got, wantSum)
	}
}

// TestBandedMatchesPriorityBandOrder is the queue-level property: for any
// priority sequence, the banded queue pops the same band sequence as the
// exact-order heap (within a band the heap may reorder by exact priority;
// the band projection must agree).
func TestBandedMatchesPriorityBandOrder(t *testing.T) {
	f := func(prios []int16) bool {
		pq := NewPriority()
		bq := NewBanded()
		for _, p := range prios {
			it := Item{Priority: int64(p)}
			pq.Push(it)
			bq.Push(it)
		}
		for range prios {
			a, okA := pq.Pop()
			b, okB := bq.Pop()
			if !okA || !okB || bandOf(a.Priority) != bandOf(b.Priority) {
				return false
			}
		}
		_, okA := pq.Pop()
		_, okB := bq.Pop()
		return !okA && !okB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestStealPrioSingleWorkerBandOrder is the pool-level property: with one
// worker (no stealing, no interleaving), a PolicyStealPrio pool runs items
// in the band order an exact Priority heap pops them.
func TestStealPrioSingleWorkerBandOrder(t *testing.T) {
	f := func(raw []int16) bool {
		var mu sync.Mutex
		var got []int
		var wg sync.WaitGroup
		p := NewPool(1, PolicyStealPrio, func(w int, it Item) {
			mu.Lock()
			got = append(got, bandOf(it.Priority))
			mu.Unlock()
			wg.Done()
		})
		// Submit everything before Start so the single worker observes the
		// fully loaded queue and pops in pure policy order.
		ref := NewPriority()
		wg.Add(len(raw))
		for _, r := range raw {
			it := Item{Priority: int64(r)}
			p.Submit(it)
			ref.Push(it)
		}
		p.Start()
		wg.Wait()
		p.Stop()
		for _, b := range got {
			if it, ok := ref.Pop(); !ok || bandOf(it.Priority) != b {
				return false
			}
		}
		return ref.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRunNextInlinesChains: a single-successor chain submitted via
// SubmitLocal rides the run-next slot (no queue round trip) under
// PolicyStealPrio; PolicyFIFO, the MADNESS preset's queue, has no slot and
// sends every successor through the shared queue.
func TestRunNextInlinesChains(t *testing.T) {
	const depth = 200
	for _, policy := range []Policy{PolicyStealPrio, PolicyFIFO} {
		var count int64
		var wg sync.WaitGroup
		var p *Pool
		p = NewPool(1, policy, func(w int, it Item) {
			defer wg.Done()
			atomic.AddInt64(&count, 1)
			if d := it.Value.(int); d < depth {
				wg.Add(1)
				p.SubmitLocal(w, Item{Value: d + 1})
			}
		})
		p.Start()
		wg.Add(1)
		p.Submit(Item{Value: 0})
		wg.Wait()
		st := p.Stats()
		p.Stop()
		if count != depth+1 {
			t.Fatalf("%v: ran %d tasks, want %d", policy, count, depth+1)
		}
		if policy == PolicyFIFO && st.InlineRuns != 0 {
			t.Fatalf("PolicyFIFO: inlined %d tasks, want 0", st.InlineRuns)
		}
		if policy == PolicyStealPrio && st.InlineRuns != depth {
			// Every successor is discovered while its parent runs, so all
			// `depth` of them chain through the slot (depth < maxInlineChain
			// never binds per-chain because the chain counter only grows
			// while the slot keeps being refilled).
			if st.InlineRuns < depth*9/10 {
				t.Fatalf("inlined %d of %d chained tasks", st.InlineRuns, depth)
			}
		}
	}
}

// TestRunNextPrefersHighestPriority: the slot always holds the
// highest-priority successor seen while the parent runs; displaced items
// land in their band deques and run in band order afterwards.
func TestRunNextPrefersHighestPriority(t *testing.T) {
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	var p *Pool
	p = NewPool(1, PolicyStealPrio, func(w int, it Item) {
		defer wg.Done()
		name := it.Value.(string)
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
		if name == "root" {
			wg.Add(3)
			p.SubmitLocal(w, Item{Priority: 1, Value: "low"})    // takes the free slot
			p.SubmitLocal(w, Item{Priority: 100, Value: "high"}) // displaces low
			p.SubmitLocal(w, Item{Priority: 50, Value: "mid"})   // below high: banded deque
		}
	})
	p.Start()
	wg.Add(1)
	p.Submit(Item{Value: "root"})
	wg.Wait()
	p.Stop()
	want := []string{"root", "high", "mid", "low"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestStealPrioStealsHighestBand: a thief sweeping a loaded victim takes
// from the victim's highest non-empty band.
func TestStealPrioStealsHighestBand(t *testing.T) {
	p := NewPool(2, PolicyStealPrio, func(int, Item) {})
	// Load worker 0's bands directly (pool not started: no owners running,
	// so pushing from here is safe).
	p.prio[0][bandOf(1)].PushBottom(Item{Priority: 1})
	p.prio[0][bandOf(200)].PushBottom(Item{Priority: 200})
	p.prio[0][bandOf(40)].PushBottom(Item{Priority: 40})
	rng := rand.New(rand.NewSource(1))
	it, ok := p.trySteal(1, rng)
	if !ok || it.Priority != 200 {
		t.Fatalf("stole %+v (ok=%v), want the priority-200 item", it, ok)
	}
	st := p.Stats()
	if st.StealAttempts != 1 || st.StealHits != 1 {
		t.Fatalf("stats = %+v, want 1 attempt, 1 hit", st)
	}
}

// TestPoolStatsParkAndWake: parked workers are visible in Stats, and a
// submission grants exactly one wake permit.
func TestPoolStatsParkAndWake(t *testing.T) {
	release := make(chan struct{})
	var wg sync.WaitGroup
	p := NewPool(2, PolicyStealPrio, func(w int, it Item) {
		<-release
		wg.Done()
	})
	p.Start()
	// Let both workers run dry and park.
	waitFor(t, func() bool { return p.Stats().Parked == 2 })
	wg.Add(1)
	p.Submit(Item{})
	waitFor(t, func() bool { return p.Stats().Parked == 1 })
	st := p.Stats()
	if st.Wakes < 1 {
		t.Fatalf("wakes = %d, want >= 1", st.Wakes)
	}
	if st.Parks < 1 {
		t.Fatalf("parks = %d, want >= 1", st.Parks)
	}
	close(release)
	wg.Wait()
	p.Stop()
}
