package simnet

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestPointToPointDelivery(t *testing.T) {
	n := New(Config{Ranks: 2})
	defer n.Close()
	n.Endpoint(0).Send(1, 7, []byte("hello"))
	p, ok := n.Endpoint(1).Recv()
	if !ok || string(p.Data) != "hello" || p.Kind != 7 || p.Src != 0 {
		t.Fatalf("got %+v ok=%v", p, ok)
	}
}

func TestInOrderPerLink(t *testing.T) {
	n := New(Config{Ranks: 2, Latency: 50 * time.Microsecond})
	defer n.Close()
	const k = 100
	for i := 0; i < k; i++ {
		n.Endpoint(0).Send(1, uint8(i%256), []byte{byte(i)})
	}
	for i := 0; i < k; i++ {
		p, ok := n.Endpoint(1).Recv()
		if !ok || p.Data[0] != byte(i) {
			t.Fatalf("packet %d out of order: %+v", i, p)
		}
	}
}

func TestLatencyApplied(t *testing.T) {
	n := New(Config{Ranks: 2, Latency: 20 * time.Millisecond})
	defer n.Close()
	start := time.Now()
	n.Endpoint(0).Send(1, 0, []byte{1})
	if _, ok := n.Endpoint(1).Recv(); !ok {
		t.Fatal("recv failed")
	}
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Fatalf("delivered too fast: %v", el)
	}
}

func TestBandwidthThrottling(t *testing.T) {
	// 1 MB at 10 MB/s should take ~100ms.
	n := New(Config{Ranks: 2, BandwidthBps: 10 << 20})
	defer n.Close()
	start := time.Now()
	n.Endpoint(0).Send(1, 0, make([]byte, 1<<20))
	if _, ok := n.Endpoint(1).Recv(); !ok {
		t.Fatal("recv failed")
	}
	if el := time.Since(start); el < 50*time.Millisecond {
		t.Fatalf("bandwidth not applied: delivered in %v", el)
	}
}

func TestAllToAllConcurrent(t *testing.T) {
	const r = 8
	const per = 50
	n := New(Config{Ranks: r})
	defer n.Close()
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
					n.Endpoint(src).Send(dst, 1, []byte{byte(src)})
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
				if _, ok := n.Endpoint(dst).Recv(); !ok {
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
	n := New(Config{Ranks: 2})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok := n.Endpoint(1).Recv(); !ok {
				return
			}
		}
	}()
	n.Endpoint(0).Send(1, 0, []byte{1})
	time.Sleep(time.Millisecond)
	n.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("receiver did not unblock on Close")
	}
}

func TestCloseIdempotent(t *testing.T) {
	n := New(Config{Ranks: 1})
	n.Close()
	n.Close()
}

func TestAccessorsAndTryRecv(t *testing.T) {
	n := New(Config{Ranks: 3})
	defer n.Close()
	if n.Ranks() != 3 || n.Endpoint(1).Rank() != 1 || n.Endpoint(1).Size() != 3 {
		t.Fatal("accessors wrong")
	}
	if _, ok := n.Endpoint(2).TryRecv(); ok {
		t.Fatal("TryRecv on empty inbox succeeded")
	}
	n.Endpoint(0).Send(2, 5, []byte{9})
	// Zero-latency fabric delivers synchronously.
	p, ok := n.Endpoint(2).TryRecv()
	if !ok || p.Data[0] != 9 {
		t.Fatalf("TryRecv = %+v, %v", p, ok)
	}
}

func TestSendToInvalidRankPanics(t *testing.T) {
	n := New(Config{Ranks: 1})
	defer n.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("send to invalid rank did not panic")
		}
	}()
	n.Endpoint(0).Send(7, 0, nil)
}

func TestSendAfterCloseDropped(t *testing.T) {
	n := New(Config{Ranks: 2, Latency: time.Microsecond})
	n.Endpoint(0).Send(1, 0, []byte{1})
	if _, ok := n.Endpoint(1).Recv(); !ok {
		t.Fatal("pre-close packet lost")
	}
	n.Close()
	// Dropped silently at the closed-fabric check.
	n.Endpoint(0).Send(1, 0, []byte{2})
}

func TestSendAfterCloseAllocFree(t *testing.T) {
	for _, cfg := range []Config{
		{Ranks: 2},
		{Ranks: 2, Latency: time.Microsecond},
	} {
		n := New(cfg)
		n.Close()
		payload := []byte{1}
		if allocs := testing.AllocsPerRun(100, func() {
			n.Endpoint(0).Send(1, 0, payload)
		}); allocs != 0 {
			t.Errorf("post-close send allocates %.1f times (cfg %+v), want 0", allocs, cfg)
		}
	}
}

func TestInflightGaugeZeroAfterClose(t *testing.T) {
	for _, cfg := range []Config{
		{Ranks: 4},
		{Ranks: 4, Latency: 20 * time.Microsecond},
	} {
		n := New(cfg)
		var reg obs.Registry
		g := reg.Gauge(obs.GaugeInflightMsgs)
		n.Observe(g)
		const per = 25
		for src := 0; src < 4; src++ {
			for dst := 0; dst < 4; dst++ {
				if dst == src {
					continue
				}
				for i := 0; i < per; i++ {
					n.Endpoint(src).Send(dst, 1, []byte{byte(i)})
				}
			}
		}
		// Close drains delayed links into the inboxes; receivers may still
		// pop what was delivered before teardown.
		n.Close()
		for dst := 0; dst < 4; dst++ {
			for {
				if _, ok := n.Endpoint(dst).Recv(); !ok {
					break
				}
			}
		}
		if v := g.Load(); v != 0 {
			t.Fatalf("in-flight gauge = %d after close+drain (cfg %+v), want 0", v, cfg)
		}
		// Post-close sends are dropped before being counted.
		n.Endpoint(0).Send(1, 0, []byte{9})
		if v := g.Load(); v != 0 {
			t.Fatalf("post-close send moved the gauge to %d", v)
		}
	}
}
