package simnet

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// closeAll closes every endpoint of a fabric.
func closeAll(eps []*Endpoint) {
	for _, ep := range eps {
		ep.Close()
	}
}

func TestPointToPointDelivery(t *testing.T) {
	eps := New(2, nil)
	defer closeAll(eps)
	eps[0].Send(1, 7, []byte("hello"))
	p, ok := eps[1].Recv()
	if !ok || string(p.Data) != "hello" || p.Kind != 7 || p.Src != 0 {
		t.Fatalf("got %+v ok=%v", p, ok)
	}
}

func TestInOrderPerLink(t *testing.T) {
	eps := New(2, nil)
	defer closeAll(eps)
	const k = 100
	for i := 0; i < k; i++ {
		eps[0].Send(1, uint8(i%256), []byte{byte(i)})
	}
	for i := 0; i < k; i++ {
		p, ok := eps[1].Recv()
		if !ok || p.Data[0] != byte(i) {
			t.Fatalf("packet %d out of order: %+v", i, p)
		}
	}
}

func TestAllToAllConcurrent(t *testing.T) {
	const r = 8
	const per = 50
	eps := New(r, nil)
	defer closeAll(eps)
	var wg sync.WaitGroup
	for src := 0; src < r; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for dst := 0; dst < r; dst++ {
				if dst == src {
					continue
				}
				for i := 0; i < per; i++ {
					eps[src].Send(dst, 1, []byte{byte(src)})
				}
			}
		}(src)
	}
	counts := make([]int, r)
	var rg sync.WaitGroup
	for dst := 0; dst < r; dst++ {
		rg.Add(1)
		go func(dst int) {
			defer rg.Done()
			for i := 0; i < (r-1)*per; i++ {
				if _, ok := eps[dst].Recv(); !ok {
					t.Errorf("rank %d inbox closed early", dst)
					return
				}
				counts[dst]++
			}
		}(dst)
	}
	wg.Wait()
	rg.Wait()
	for dst, c := range counts {
		if c != (r-1)*per {
			t.Fatalf("rank %d received %d packets, want %d", dst, c, (r-1)*per)
		}
	}
}

func TestCloseUnblocksReceivers(t *testing.T) {
	eps := New(2, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok := eps[1].Recv(); !ok {
				return
			}
		}
	}()
	eps[0].Send(1, 0, []byte{1})
	time.Sleep(time.Millisecond)
	closeAll(eps)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("receiver did not unblock on Close")
	}
}

func TestCloseIdempotent(t *testing.T) {
	ep := New(1, nil)[0]
	if ep.Close() != nil || ep.Close() != nil {
		t.Fatal("Close returned an error")
	}
}

func TestAccessors(t *testing.T) {
	eps := New(3, nil)
	defer closeAll(eps)
	if len(eps) != 3 || eps[1].Rank() != 1 || eps[1].Size() != 3 {
		t.Fatal("accessors wrong")
	}
}

func TestSendToInvalidRankPanics(t *testing.T) {
	eps := New(1, nil)
	defer closeAll(eps)
	defer func() {
		if recover() == nil {
			t.Fatal("send to invalid rank did not panic")
		}
	}()
	eps[0].Send(7, 0, nil)
}

func TestSendAfterCloseDropped(t *testing.T) {
	eps := New(2, nil)
	eps[0].Send(1, 0, []byte{1})
	if _, ok := eps[1].Recv(); !ok {
		t.Fatal("pre-close packet lost")
	}
	closeAll(eps)
	eps[0].Send(1, 0, []byte{2})
	if p, ok := eps[1].Recv(); ok {
		t.Fatalf("post-close send delivered %+v", p)
	}
}

func TestSendAfterCloseAllocFree(t *testing.T) {
	eps := New(2, nil)
	closeAll(eps)
	payload := []byte{1}
	if allocs := testing.AllocsPerRun(100, func() {
		eps[0].Send(1, 0, payload)
	}); allocs != 0 {
		t.Errorf("post-close send allocates %.1f times, want 0", allocs)
	}
}

func TestInflightGaugeZeroAfterClose(t *testing.T) {
	var reg obs.Registry
	g := reg.Gauge(obs.GaugeInflightMsgs)
	eps := New(4, g)
	const per = 25
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			if dst == src {
				continue
			}
			for i := 0; i < per; i++ {
				eps[src].Send(dst, 1, []byte{byte(i)})
			}
		}
	}
	if v, want := g.Load(), int64(4*3*per); v != want {
		t.Fatalf("in-flight gauge = %d before any receive, want %d", v, want)
	}
	// Receivers may still pop what was delivered before teardown.
	closeAll(eps)
	for _, ep := range eps {
		for {
			if _, ok := ep.Recv(); !ok {
				break
			}
		}
	}
	if v := g.Load(); v != 0 {
		t.Fatalf("in-flight gauge = %d after close+drain, want 0", v)
	}
	// Post-close sends are dropped and leave the gauge where it was.
	eps[0].Send(1, 0, []byte{9})
	if v := g.Load(); v != 0 {
		t.Fatalf("post-close send moved the gauge to %d", v)
	}
}
