package netfab

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/pool"
	"repro/internal/serde"
)

func mesh(t testing.TB, n int, cfg Config) []*Endpoint {
	t.Helper()
	eps, err := NewLocalMesh(n, cfg)
	if err != nil {
		t.Fatalf("NewLocalMesh: %v", err)
	}
	t.Cleanup(func() { CloseAll(eps) })
	return eps
}

func transports(t *testing.T, n int, f func(t *testing.T, eps []*Endpoint)) {
	for _, tr := range []string{"tcp", "unix"} {
		t.Run(tr, func(t *testing.T) {
			f(t, mesh(t, n, Config{Transport: tr}))
		})
	}
}

func TestPingPong(t *testing.T) {
	transports(t, 2, func(t *testing.T, eps []*Endpoint) {
		eps[0].Send(1, 7, []byte("ping"))
		pkt, ok := eps[1].Recv()
		if !ok || pkt.Kind != 7 || string(pkt.Data) != "ping" || pkt.Src != 0 {
			t.Fatalf("bad packet: %+v ok=%v", pkt, ok)
		}
		eps[1].Send(0, 8, []byte("pong"))
		pkt, ok = eps[0].Recv()
		if !ok || pkt.Kind != 8 || string(pkt.Data) != "pong" || pkt.Src != 1 {
			t.Fatalf("bad packet: %+v ok=%v", pkt, ok)
		}
	})
}

// TestFrameOrdering checks per-link FIFO across many frames and sizes:
// the reader hands them to the handler in the order they were sent.
func TestFrameOrdering(t *testing.T) {
	transports(t, 2, func(t *testing.T, eps []*Endpoint) {
		const n = 500
		done := make(chan struct{})
		next := 0
		eps[1].Start(func(pkt fabric.Packet) {
			if got := serde.FromBytes(pkt.Data).U32(); got != uint32(next) {
				t.Errorf("frame %d arrived as %d (reordered)", next, got)
			}
			if next++; next == n {
				close(done)
			}
		})
		for i := 0; i < n; i++ {
			b := serde.GetBuffer(16)
			b.PutU32(uint32(i))
			b.PutRaw(make([]byte, i%97))
			eps[0].Send(1, 9, b.Detach())
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("the handler did not see %d frames in 10 s", n)
		}
	})
}

// TestSegRoundTrip ships float64 and byte segments and checks they land
// in pooled memory with contents intact.
func TestSegRoundTrip(t *testing.T) {
	transports(t, 2, func(t *testing.T, eps []*Endpoint) {
		f := pool.Float64s(1024)
		for i := range f {
			f[i] = float64(i) * 0.5
		}
		bseg := pool.CloneBytes([]byte("segment-bytes"))
		eps[0].SendSegs(1, 10, []byte("hdr"), []serde.Segment{{F64: f}, {B: bseg}})
		pkt, ok := eps[1].Recv()
		if !ok || pkt.Kind != 10 || string(pkt.Data) != "hdr" || len(pkt.Segs) != 2 {
			t.Fatalf("bad packet: %+v ok=%v", pkt, ok)
		}
		got := pkt.Segs[0].F64
		if len(got) != 1024 {
			t.Fatalf("f64 segment len = %d", len(got))
		}
		for i := range got {
			if got[i] != float64(i)*0.5 {
				t.Fatalf("f64[%d] = %v", i, got[i])
			}
		}
		if string(pkt.Segs[1].B) != "segment-bytes" {
			t.Fatalf("byte segment = %q", pkt.Segs[1].B)
		}
		if cap(got) != pool.F64ClassCap(mustClass(t, cap(got))) {
			t.Fatalf("landed f64 segment not pool-classed: cap %d", cap(got))
		}
	})
}

func mustClass(t *testing.T, n int) int {
	t.Helper()
	cls, ok := pool.F64ClassFor(n)
	if !ok {
		t.Fatalf("cap %d has no pool class", n)
	}
	return cls
}

// TestBackpressure checks that a sender parks once a peer's queued bytes
// exceed MaxInflight and resumes as the writer drains — by throttling
// drain via a tiny bound and verifying all frames still arrive.
func TestBackpressure(t *testing.T) {
	eps := mesh(t, 2, Config{Transport: "tcp", MaxInflight: 4 << 10})
	const n = 200
	var got sync.WaitGroup
	got.Add(n)
	eps[1].Start(func(fabric.Packet) { got.Done() })
	for i := 0; i < n; i++ {
		eps[0].Send(1, 11, make([]byte, 1024))
	}
	got.Wait()
	// As in TestPeerStats: the writer releases a batch's bytes once its
	// writev returns, which the receiver can outrun; wait (bounded).
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		q := eps[0].PeerStats()[0].QueuedBytes
		if q == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queued bytes after drain = %d", q)
		}
	}
}

func TestPeerStats(t *testing.T) {
	eps := mesh(t, 3, Config{Transport: "tcp"})
	eps[0].Send(2, 12, []byte("x"))
	pkt, _ := eps[2].Recv()
	if string(pkt.Data) != "x" {
		t.Fatal("bad payload")
	}
	// The writer counts a batch once its writev returns, which the
	// receiver can outrun; wait (bounded) for the tx side to catch up.
	var to2 *fabric.PeerStat
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		st := eps[0].PeerStats()
		if len(st) != 2 {
			t.Fatalf("got %d peer stats, want 2", len(st))
		}
		for i := range st {
			if st[i].Peer == 2 {
				to2 = &st[i]
			}
		}
		if to2 == nil {
			t.Fatalf("no stats for rank 2: %+v", st)
		}
		if to2.TxFrames == 1 && to2.TxBytes > 0 && to2.WritevCalls == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats to rank 2: %+v", to2)
		}
	}
	// Receiver side counted it too.
	for _, s := range eps[2].PeerStats() {
		if s.Peer == 0 && (s.RxFrames != 1 || s.RxBytes != to2.TxBytes) {
			t.Fatalf("rx stats: %+v (tx %d)", s, to2.TxBytes)
		}
	}
}

// TestGracefulClose: frames sent just before Close still arrive (the
// half-close handshake drains both directions).
func TestGracefulClose(t *testing.T) {
	eps, err := NewLocalMesh(2, Config{Transport: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		eps[0].Send(1, 13, []byte{byte(i)})
	}
	var c atomic.Int64
	eps[1].Start(func(fabric.Packet) { c.Add(1) })
	closed := make(chan struct{})
	go func() {
		CloseAll(eps)
		close(closed)
	}()
	select {
	case <-closed:
		if c.Load() != n {
			t.Fatalf("handled %d of %d frames across close", c.Load(), n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned")
	}
}

// TestCloseDrainsIntoRecv: an endpoint nobody Started still reads its
// peers' last frames at Close, into Recv's queue.
func TestCloseDrainsIntoRecv(t *testing.T) {
	eps, err := NewLocalMesh(2, Config{Transport: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	eps[0].Send(1, 13, []byte("last"))
	CloseAll(eps)
	if pkt, ok := eps[1].Recv(); !ok || string(pkt.Data) != "last" {
		t.Fatalf("after close: %+v ok=%v", pkt, ok)
	}
	if _, ok := eps[1].Recv(); ok {
		t.Fatal("Recv returned a packet past the last")
	}
}

// TestRelayNeverParks pins the backpressure rule a receive handler relies
// on, at the endpoint's own entry points: a relay never parks, a first
// send parks while the peer's queue is over MaxInflight. A handler that
// parked would stop reading its socket until the peer's writer drained.
func TestRelayNeverParks(t *testing.T) {
	c, other := net.Pipe()
	defer c.Close()
	defer other.Close()
	pr := newPeer(1, c, 4<<10) // no writer runs: nothing drains
	e := &Endpoint{rank: 0, size: 2, peers: []*peer{nil, pr}}
	relayed := make(chan struct{})
	go func() {
		for i := 0; i < 4; i++ {
			e.Relay(1, 1, make([]byte, 4<<10), nil)
		}
		close(relayed)
	}()
	select {
	case <-relayed:
	case <-time.After(time.Second):
		t.Fatal("a relay parked on the in-flight bound")
	}
	if pr.qBytes <= pr.maxInflight {
		t.Fatalf("queued %d bytes, want more than the %d bound", pr.qBytes, pr.maxInflight)
	}
	parked := make(chan struct{})
	go func() {
		e.SendSegs(1, 1, nil, nil)
		close(parked)
	}()
	select {
	case <-parked:
		t.Fatal("a first send over the bound did not park")
	case <-time.After(20 * time.Millisecond):
	}
	pr.beginClose()
	<-parked
}

// TestManyRanksAllToAll drives a 5-rank mesh with every pair exchanging
// frames concurrently.
func TestManyRanksAllToAll(t *testing.T) {
	const n = 5
	eps := mesh(t, n, Config{Transport: "tcp"})
	var mu sync.Mutex
	seen := make([]map[int]bool, n)
	var got sync.WaitGroup
	got.Add(n * (n - 1))
	for r := 0; r < n; r++ {
		seen[r] = map[int]bool{}
		eps[r].Start(func(pkt fabric.Packet) {
			from := int(serde.FromBytes(pkt.Data).U32())
			mu.Lock()
			if from != pkt.Src {
				t.Errorf("rank %d: src %d body says %d", r, pkt.Src, from)
			}
			seen[r][from] = true
			mu.Unlock()
			got.Done()
		})
	}
	var wg sync.WaitGroup
	for src := 0; src < n; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for dst := 0; dst < n; dst++ {
				if dst == src {
					continue
				}
				b := serde.GetBuffer(8)
				b.PutU32(uint32(src))
				eps[src].Send(dst, 14, b.Detach())
			}
		}(src)
	}
	wg.Wait()
	got.Wait()
	for r := 0; r < n; r++ {
		if len(seen[r]) != n-1 {
			t.Fatalf("rank %d heard from %d peers", r, len(seen[r]))
		}
	}
}

func TestUnixMeshSelfSend(t *testing.T) {
	eps := mesh(t, 2, Config{Transport: "unix"})
	// A self-send reaches the handler before it returns, without touching
	// a socket (simnet parity).
	var got []fabric.Packet
	eps[1].Start(func(pkt fabric.Packet) { got = append(got, pkt) })
	eps[1].Send(1, 15, []byte("self"))
	if len(got) != 1 || string(got[0].Data) != "self" || got[0].Src != 1 {
		t.Fatalf("self send: %+v", got)
	}
}

func TestBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Transport: "ib", Rank: 0, Size: 2},
		{Transport: "tcp", Rank: 2, Size: 2},
		{Transport: "tcp", Rank: -1, Size: 2},
	} {
		if _, err := Bootstrap(cfg); err == nil {
			t.Fatalf("Bootstrap(%+v) should fail", cfg)
		}
	}
}

func BenchmarkLoopbackPingPong(b *testing.B) {
	for _, tr := range []string{"tcp", "unix"} {
		b.Run(tr, func(b *testing.B) {
			eps := mesh(b, 2, Config{Transport: tr})
			payload := []byte("x")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eps[0].Send(1, 20, payload)
				eps[1].Recv()
				eps[1].Send(0, 20, payload)
				eps[0].Recv()
			}
		})
	}
}

func BenchmarkLoopbackBandwidth(b *testing.B) {
	for _, size := range []int{1 << 10, 16 << 10, 256 << 10, 4 << 20} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			eps := mesh(b, 2, Config{Transport: "tcp"})
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := pool.Float64s(size / 8)
				eps[0].SendSegs(1, 21, nil, []serde.Segment{{F64: f}})
				pkt, _ := eps[1].Recv()
				pool.PutFloat64s(pkt.Segs[0].F64)
			}
		})
	}
}
