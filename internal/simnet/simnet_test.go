package simnet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
)

// closeAll closes every endpoint of a fabric.
func closeAll(eps []*Endpoint) {
	for _, ep := range eps {
		ep.Close()
	}
}

// record Starts ep with a handler that keeps every packet it is handed.
func record(ep *Endpoint) func() []fabric.Packet {
	var mu sync.Mutex
	var got []fabric.Packet
	ep.Start(func(p fabric.Packet) {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
	})
	return func() []fabric.Packet {
		mu.Lock()
		defer mu.Unlock()
		return append([]fabric.Packet(nil), got...)
	}
}

// TestPointToPointDelivery: the handler has the packet by the time the
// send returns.
func TestPointToPointDelivery(t *testing.T) {
	eps := New(2)
	defer closeAll(eps)
	got := record(eps[1])
	eps[0].SendSegs(1, 7, []byte("hello"), nil)
	if ps := got(); len(ps) != 1 || string(ps[0].Data) != "hello" || ps[0].Kind != 7 || ps[0].Src != 0 || ps[0].Dst != 1 {
		t.Fatalf("got %+v", ps)
	}
}

func TestInOrderPerLink(t *testing.T) {
	eps := New(2)
	defer closeAll(eps)
	got := record(eps[1])
	const k = 100
	for i := 0; i < k; i++ {
		eps[0].SendSegs(1, uint8(i%256), []byte{byte(i)}, nil)
	}
	ps := got()
	if len(ps) != k {
		t.Fatalf("%d packets handled, want %d", len(ps), k)
	}
	for i, p := range ps {
		if p.Data[0] != byte(i) {
			t.Fatalf("packet %d out of order: %+v", i, p)
		}
	}
}

func TestAllToAllConcurrent(t *testing.T) {
	const r = 8
	const per = 50
	eps := New(r)
	defer closeAll(eps)
	counts := make([]atomic.Int64, r)
	for dst := range eps {
		eps[dst].Start(func(fabric.Packet) { counts[dst].Add(1) })
	}
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
					eps[src].SendSegs(dst, 1, []byte{byte(src)}, nil)
				}
			}
		}(src)
	}
	wg.Wait()
	for dst := range counts {
		if c := counts[dst].Load(); c != (r-1)*per {
			t.Fatalf("rank %d handled %d packets, want %d", dst, c, (r-1)*per)
		}
	}
}

// TestSendWaitsForStart: a send to a rank that has not installed its
// handler yet waits for it instead of losing the packet.
func TestSendWaitsForStart(t *testing.T) {
	eps := New(2)
	defer closeAll(eps)
	sent := make(chan struct{})
	go func() {
		eps[0].Relay(1, 3, []byte{1}, nil)
		close(sent)
	}()
	select {
	case <-sent:
		t.Fatal("send returned before its destination Started")
	case <-time.After(10 * time.Millisecond):
	}
	got := record(eps[1])
	<-sent
	if ps := got(); len(ps) != 1 || ps[0].Kind != 3 {
		t.Fatalf("got %+v", ps)
	}
}

func TestCloseIdempotent(t *testing.T) {
	ep := New(1)[0]
	if ep.Close() != nil || ep.Close() != nil {
		t.Fatal("Close returned an error")
	}
}

func TestAccessors(t *testing.T) {
	eps := New(3)
	defer closeAll(eps)
	if len(eps) != 3 || eps[1].Rank() != 1 || eps[1].Size() != 3 {
		t.Fatal("accessors wrong")
	}
}

func TestSendToInvalidRankPanics(t *testing.T) {
	eps := New(1)
	defer closeAll(eps)
	defer func() {
		if recover() == nil {
			t.Fatal("send to invalid rank did not panic")
		}
	}()
	eps[0].SendSegs(7, 0, nil, nil)
}

func TestSendAfterCloseDropped(t *testing.T) {
	eps := New(2)
	got := record(eps[1])
	eps[0].SendSegs(1, 0, []byte{1}, nil)
	if len(got()) != 1 {
		t.Fatal("pre-close packet lost")
	}
	closeAll(eps)
	eps[0].SendSegs(1, 0, []byte{2}, nil)
	if ps := got(); len(ps) != 1 {
		t.Fatalf("post-close send delivered %+v", ps[1:])
	}
}

func TestSendAfterCloseAllocFree(t *testing.T) {
	eps := New(2)
	closeAll(eps)
	payload := []byte{1}
	if allocs := testing.AllocsPerRun(100, func() {
		eps[0].SendSegs(1, 0, payload, nil)
	}); allocs != 0 {
		t.Errorf("post-close send allocates %.1f times, want 0", allocs)
	}
}
