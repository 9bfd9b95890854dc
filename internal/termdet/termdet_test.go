package termdet

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/simnet"
)

// harness wires detectors over a simnet fabric, each rank's handler
// passing control packets to its detector the way a backend's receive
// handler would. sent and received are the ranks' message counts, which a
// test moves the way a backend's send and receive paths would.
type harness struct {
	eps            []*simnet.Endpoint
	dets           []*Detector
	sent, received []atomic.Int64
}

func newHarness(ranks int) *harness {
	h := &harness{eps: simnet.New(ranks)}
	h.dets = make([]*Detector, ranks)
	h.sent = make([]atomic.Int64, ranks)
	h.received = make([]atomic.Int64, ranks)
	for r := 0; r < ranks; r++ {
		ep := h.eps[r]
		h.dets[r] = New(r, ranks, &h.sent[r], &h.received[r], func(dst int, data []byte) {
			ep.Relay(dst, 0, data, nil)
		})
	}
	for r := 0; r < ranks; r++ {
		d := h.dets[r]
		h.eps[r].Start(func(p fabric.Packet) { d.HandleControl(p.Data) })
	}
	return h
}

func (h *harness) close() {
	for _, ep := range h.eps {
		ep.Close()
	}
}

func TestFenceSingleRank(t *testing.T) {
	d := New(0, 1, new(atomic.Int64), new(atomic.Int64), nil)
	d.Activate()
	go func() {
		time.Sleep(5 * time.Millisecond)
		d.Deactivate()
	}()
	done := make(chan struct{})
	go func() { d.Fence(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("single-rank fence hung")
	}
}

func TestFenceWaitsForActivity(t *testing.T) {
	h := newHarness(4)
	defer h.close()
	// Rank 2 has pending activity released after a delay.
	h.dets[2].Activate()
	var released atomic.Bool
	go func() {
		time.Sleep(20 * time.Millisecond)
		released.Store(true)
		h.dets[2].Deactivate()
	}()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			h.dets[r].Fence()
			if !released.Load() {
				t.Errorf("rank %d fence returned before activity drained", r)
			}
		}(r)
	}
	wg.Wait()
}

func TestFenceWaitsForInFlightMessages(t *testing.T) {
	h := newHarness(2)
	defer h.close()
	// Simulate a data message in flight: sent counted, receive delayed.
	h.sent[0].Add(1)
	var landed atomic.Bool
	go func() {
		time.Sleep(20 * time.Millisecond)
		landed.Store(true)
		h.received[1].Add(1)
	}()
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			h.dets[r].Fence()
			if !landed.Load() {
				t.Errorf("rank %d fence returned with message in flight", r)
			}
		}(r)
	}
	wg.Wait()
}

func TestRepeatedFences(t *testing.T) {
	h := newHarness(3)
	defer h.close()
	for epoch := 0; epoch < 5; epoch++ {
		// Random work on a random rank each epoch.
		r := epoch % 3
		h.dets[r].Activate()
		go func(r int) {
			time.Sleep(time.Duration(rand.Intn(5)) * time.Millisecond)
			h.dets[r].Deactivate()
		}(r)
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func(i int) { defer wg.Done(); h.dets[i].Fence() }(i)
		}
		wg.Wait()
	}
}

func TestStableRequiresTwoIdenticalWaves(t *testing.T) {
	a := map[int]counters{0: {s: 3, r: 3, a: 0}}
	b := map[int]counters{0: {s: 4, r: 4, a: 0}}
	if stable(nil, a) {
		t.Error("stable with no previous wave")
	}
	if stable(a, b) {
		t.Error("stable across differing waves")
	}
	if !stable(a, map[int]counters{0: {s: 3, r: 3, a: 0}}) {
		t.Error("identical quiescent waves not stable")
	}
	if stable(map[int]counters{0: {s: 3, r: 2, a: 0}}, map[int]counters{0: {s: 3, r: 2, a: 0}}) {
		t.Error("stable with sent != received")
	}
	if stable(map[int]counters{0: {s: 3, r: 3, a: 1}}, map[int]counters{0: {s: 3, r: 3, a: 1}}) {
		t.Error("stable with active work")
	}
}

func TestFenceUnderMessageStorm(t *testing.T) {
	const ranks = 4
	h := newHarness(ranks)
	defer h.close()
	// Workers pass "messages" around: each hop may spawn another hop.
	var hops atomic.Int64
	hops.Store(200)
	var wg sync.WaitGroup
	var hop func(from, to int, depth int)
	hop = func(from, to, depth int) {
		defer wg.Done()
		h.dets[to].Activate()
		h.sent[0].Add(1) // model: counted on some rank
		time.Sleep(time.Duration(rand.Intn(100)) * time.Microsecond)
		h.received[0].Add(1)
		if hops.Add(-1) > 0 && depth < 50 {
			wg.Add(1)
			go hop(to, (to+1)%ranks, depth+1)
		}
		h.dets[to].Deactivate()
	}
	for i := 0; i < ranks; i++ {
		wg.Add(1)
		h.dets[i].Activate()
		go func(i int) {
			defer wg.Done()
			defer h.dets[i].Deactivate()
			wg.Add(1)
			go hop(i, (i+1)%ranks, 0)
		}(i)
	}
	fenceDone := make(chan struct{})
	go func() {
		var fg sync.WaitGroup
		for r := 0; r < ranks; r++ {
			fg.Add(1)
			go func(r int) { defer fg.Done(); h.dets[r].Fence() }(r)
		}
		fg.Wait()
		close(fenceDone)
	}()
	select {
	case <-fenceDone:
		for r := 0; r < ranks; r++ {
			if a := h.dets[r].Active(); a != 0 {
				t.Errorf("rank %d still active after fence: %d", r, a)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fence did not complete under storm")
	}
	wg.Wait()
}
