package sched

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestFIFOOrder(t *testing.T) {
	q := NewFIFO()
	for i := 0; i < 100; i++ {
		q.Push(Item{Value: i})
	}
	for i := 0; i < 100; i++ {
		it, ok := q.Pop()
		if !ok || it.Value.(int) != i {
			t.Fatalf("pop %d: got %v ok=%v", i, it.Value, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty FIFO succeeded")
	}
}

func TestPriorityOrderWithTies(t *testing.T) {
	q := NewPriority()
	q.Push(Item{Priority: 1, Value: "low"})
	q.Push(Item{Priority: 5, Value: "hi-a"})
	q.Push(Item{Priority: 5, Value: "hi-b"})
	q.Push(Item{Priority: 3, Value: "mid"})
	want := []string{"hi-a", "hi-b", "mid", "low"}
	for _, w := range want {
		it, ok := q.Pop()
		if !ok || it.Value.(string) != w {
			t.Fatalf("got %v want %s", it.Value, w)
		}
	}
}

func TestPriorityHeapProperty(t *testing.T) {
	f := func(prios []int64) bool {
		q := NewPriority()
		for _, p := range prios {
			q.Push(Item{Priority: p})
		}
		out := make([]int64, 0, len(prios))
		for {
			it, ok := q.Pop()
			if !ok {
				break
			}
			out = append(out, it.Priority)
		}
		if len(out) != len(prios) {
			return false
		}
		return sort.SliceIsSorted(out, func(i, j int) bool { return out[i] > out[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDequeOwnerLIFOThiefFIFO(t *testing.T) {
	d := NewDeque()
	for i := 0; i < 4; i++ {
		d.PushBottom(Item{Value: i})
	}
	if it, _ := d.Steal(); it.Value.(int) != 0 {
		t.Fatalf("steal got %v want 0", it.Value)
	}
	if it, _ := d.PopBottom(); it.Value.(int) != 3 {
		t.Fatalf("pop got %v want 3", it.Value)
	}
	if d.Len() != 2 {
		t.Fatalf("len = %d want 2", d.Len())
	}
}

func TestDequeConcurrentStealNoLossNoDup(t *testing.T) {
	d := NewDeque()
	const n = 10000
	seen := make([]int32, n)
	var wg sync.WaitGroup
	var produced int32
	wg.Add(1)
	go func() { // owner: pushes and occasionally pops
		defer wg.Done()
		for i := 0; i < n; i++ {
			d.PushBottom(Item{Value: i})
			atomic.AddInt32(&produced, 1)
			if i%3 == 0 {
				if it, ok := d.PopBottom(); ok {
					atomic.AddInt32(&seen[it.Value.(int)], 1)
				}
			}
		}
	}()
	var thieves sync.WaitGroup
	stop := make(chan struct{})
	for th := 0; th < 4; th++ {
		thieves.Add(1)
		go func() {
			defer thieves.Done()
			for {
				if it, ok := d.Steal(); ok {
					atomic.AddInt32(&seen[it.Value.(int)], 1)
					continue
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	for { // drain remaining
		it, ok := d.Steal()
		if !ok {
			break
		}
		atomic.AddInt32(&seen[it.Value.(int)], 1)
	}
	close(stop)
	thieves.Wait()
	for { // drain anything a thief raced on
		it, ok := d.Steal()
		if !ok {
			break
		}
		atomic.AddInt32(&seen[it.Value.(int)], 1)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("item %d seen %d times", i, c)
		}
	}
}

func runPoolTest(t *testing.T, policy Policy, workers, items int) {
	t.Helper()
	var count int64
	var wg sync.WaitGroup
	wg.Add(items)
	p := NewPool(workers, policy, func(w int, it Item) {
		atomic.AddInt64(&count, int64(it.Value.(int)))
		wg.Done()
	})
	p.Start()
	for i := 0; i < items; i++ {
		p.Submit(Item{Value: 1, Priority: int64(i)})
	}
	wg.Wait()
	p.Stop()
	if count != int64(items) {
		t.Fatalf("executed %d items, want %d", count, items)
	}
}

func TestPoolAllPoliciesExecuteEverything(t *testing.T) {
	for _, pol := range []Policy{PolicyFIFO, PolicyStealPrio} {
		t.Run(pol.String(), func(t *testing.T) {
			runPoolTest(t, pol, 4, 5000)
		})
	}
}

// An out-of-range Policy must fail at construction naming the value, not
// nil-deref later on whichever goroutine first submits.
func TestNewPoolRejectsUnknownPolicy(t *testing.T) {
	for _, pol := range []Policy{-1, 2, 9} {
		func() {
			defer func() {
				r := recover()
				if want := pol.String(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
					t.Errorf("NewPool(policy %d) panic = %v, want one naming %q", int(pol), r, want)
				}
			}()
			NewPool(1, pol, func(int, Item) {})
		}()
	}
}

func TestPoolRecursiveLocalSubmit(t *testing.T) {
	var count int64
	var wg sync.WaitGroup
	const fanout = 3
	const depth = 6
	var p *Pool
	var body func(w int, it Item)
	body = func(w int, it Item) {
		defer wg.Done()
		atomic.AddInt64(&count, 1)
		d := it.Value.(int)
		if d < depth {
			for c := 0; c < fanout; c++ {
				wg.Add(1)
				p.SubmitLocal(w, Item{Value: d + 1})
			}
		}
	}
	p = NewPool(4, PolicyStealPrio, body)
	p.Start()
	wg.Add(1)
	p.Submit(Item{Value: 0})
	wg.Wait()
	p.Stop()
	// total = (fanout^(depth+1) - 1) / (fanout - 1)
	want := int64(0)
	pow := int64(1)
	for i := 0; i <= depth; i++ {
		want += pow
		pow *= fanout
	}
	if count != want {
		t.Fatalf("executed %d tasks, want %d", count, want)
	}
}

func TestPoolStopIdempotentStartIdempotent(t *testing.T) {
	p := NewPool(2, PolicyFIFO, func(int, Item) {})
	p.Start()
	p.Start()
	p.Stop()
}

func TestDequeBatchPushOrder(t *testing.T) {
	d := NewDeque()
	batch := make([]Item, 5)
	for i := range batch {
		batch[i] = Item{Value: i}
	}
	d.PushBottomBatch(batch)
	// Thief sees submission order, owner sees reverse.
	if it, _ := d.Steal(); it.Value.(int) != 0 {
		t.Fatalf("steal got %v want 0", it.Value)
	}
	if it, _ := d.PopBottom(); it.Value.(int) != 4 {
		t.Fatalf("pop got %v want 4", it.Value)
	}
	if d.Len() != 3 {
		t.Fatalf("len = %d want 3", d.Len())
	}
}

func TestDequeGrowsAndReleases(t *testing.T) {
	d := NewDeque()
	const n = 100000
	for i := 0; i < n; i++ {
		d.PushBottom(Item{Value: i})
	}
	if got := d.buf.Load().cap(); got < n {
		t.Fatalf("ring did not grow: cap %d < %d", got, n)
	}
	for i := n - 1; i >= 0; i-- {
		it, ok := d.PopBottom()
		if !ok || it.Value.(int) != i {
			t.Fatalf("pop %d: got %v ok=%v", i, it.Value, ok)
		}
	}
	if _, ok := d.PopBottom(); ok {
		t.Fatal("pop from empty deque succeeded")
	}
	if got := d.buf.Load().cap(); got != dqMinCap {
		t.Fatalf("ring not released after drain: cap %d want %d", got, dqMinCap)
	}
	for i := range d.buf.Load().slot {
		if d.buf.Load().slot[i].Load() != nil {
			t.Fatalf("slot %d still pins an item after drain", i)
		}
	}
}

func TestDequeStealHeavyDrainReleasesTopEnd(t *testing.T) {
	d := NewDeque()
	const n = 5000
	for i := 0; i < n; i++ {
		d.PushBottom(Item{Value: i})
	}
	// Thief-only drain: top-end consumption must not wedge the ring full
	// of dead boxes once the owner observes it empty.
	for i := 0; i < n; i++ {
		if _, ok := d.Steal(); !ok {
			t.Fatalf("steal %d failed", i)
		}
	}
	if _, ok := d.PopBottom(); ok {
		t.Fatal("pop from drained deque succeeded")
	}
	r := d.buf.Load()
	if r.cap() != dqMinCap {
		t.Fatalf("ring not shrunk after steal-heavy drain: cap %d", r.cap())
	}
	for i := range r.slot {
		if r.slot[i].Load() != nil {
			t.Fatalf("slot %d still pins an item", i)
		}
	}
}

func TestFIFOReleasesBackingArray(t *testing.T) {
	q := NewFIFO()
	const n = 100000
	for i := 0; i < n; i++ {
		q.Push(Item{Value: i})
	}
	for i := 0; i < n; i++ {
		if _, ok := q.Pop(); !ok {
			t.Fatalf("pop %d failed", i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty FIFO succeeded")
	}
	if c := cap(q.items); c > 1024 {
		t.Fatalf("FIFO retains cap %d after drain", c)
	}
}

func TestQueuePushBatch(t *testing.T) {
	batch := make([]Item, 10)
	for i := range batch {
		batch[i] = Item{Value: i, Priority: int64(i)}
	}
	for _, tc := range []struct {
		name string
		q    Queue
	}{
		{"fifo", NewFIFO()}, {"priority", NewPriority()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.q.PushBatch(batch)
			if tc.q.Len() != len(batch) {
				t.Fatalf("len = %d want %d", tc.q.Len(), len(batch))
			}
			seen := map[int]bool{}
			for range batch {
				it, ok := tc.q.Pop()
				if !ok {
					t.Fatal("pop failed")
				}
				seen[it.Value.(int)] = true
			}
			if len(seen) != len(batch) {
				t.Fatalf("saw %d distinct items, want %d", len(seen), len(batch))
			}
		})
	}
}

func TestPoolSubmitBatchExecutesEverything(t *testing.T) {
	for _, pol := range []Policy{PolicyFIFO, PolicyStealPrio} {
		t.Run(pol.String(), func(t *testing.T) {
			const items = 5000
			var count int64
			var wg sync.WaitGroup
			wg.Add(items)
			p := NewPool(4, pol, func(w int, it Item) {
				atomic.AddInt64(&count, 1)
				wg.Done()
			})
			p.Start()
			batch := make([]Item, 0, 64)
			for i := 0; i < items; i++ {
				batch = append(batch, Item{Value: i})
				if len(batch) == 64 || i == items-1 {
					p.SubmitBatch(batch)
					batch = batch[:0]
				}
			}
			wg.Wait()
			p.Stop()
			if count != items {
				t.Fatalf("executed %d items, want %d", count, items)
			}
		})
	}
}

func TestPoolRecursiveLocalBatchSubmit(t *testing.T) {
	var count int64
	var wg sync.WaitGroup
	const fanout = 4
	const depth = 5
	var p *Pool
	body := func(w int, it Item) {
		defer wg.Done()
		atomic.AddInt64(&count, 1)
		d := it.Value.(int)
		if d < depth {
			batch := make([]Item, fanout)
			for c := range batch {
				batch[c] = Item{Value: d + 1}
			}
			wg.Add(fanout)
			p.SubmitLocalBatch(w, batch)
		}
	}
	p = NewPool(4, PolicyStealPrio, body)
	p.Start()
	wg.Add(1)
	p.Submit(Item{Value: 0})
	wg.Wait()
	p.Stop()
	want := int64(0)
	pow := int64(1)
	for i := 0; i <= depth; i++ {
		want += pow
		pow *= fanout
	}
	if count != want {
		t.Fatalf("executed %d tasks, want %d", count, want)
	}
}
