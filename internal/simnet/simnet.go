// Package simnet provides the process-local virtual cluster over which the
// runtime backends communicate. It stands in for the MPI/UCX fabric of the
// paper's test systems (Hawk, Seawulf): each rank owns an endpoint with an
// unbounded in-order inbox and point-to-point links with configurable
// latency and bandwidth. Framed payloads really cross the "network" as
// bytes, so serialization behaves as it would over a wire; gathered
// payloads (Packet.Segs) cross by reference — the in-process analog of an
// iovec write handed to the NIC — but are charged their full byte size in
// link occupancy and transfer time.
//
// The fabric is contention-free on the send path: links live in a
// preallocated per-pair table (no map, no global mutex) and each directed
// link carries a virtual clock — an atomic "link free at" deadline advanced
// by compare-and-swap arithmetic instead of a dedicated goroutine sleeping
// through each packet's transfer time. Delayed packets are timed out by a
// small fixed pool of delivery shards, so an R-rank run costs O(shards)
// goroutines rather than O(R²).
package simnet

import (
	"container/heap"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/serde"
)

// Config describes the virtual fabric.
type Config struct {
	// Ranks is the number of endpoints (processes).
	Ranks int
	// Latency is added to every packet's delivery. Zero means immediate.
	Latency time.Duration
	// BandwidthBps throttles each directed link in bytes per second.
	// Zero means infinite bandwidth.
	BandwidthBps float64
}

// Packet is one message on the virtual fabric (the shared fabric.Packet
// form). Simnet never touches segment memory, but link occupancy and
// transfer time charge its full byte size, so a by-reference payload
// costs exactly what its bytes would.
type Packet = fabric.Packet

// link is one directed channel's virtual clock: the fabric-relative time
// (ns since the network was built) at which the link next becomes free.
// FIFO serialization on the link is pure deadline arithmetic — each packet
// claims [busy, busy+transfer) by CAS, so concurrent senders never block
// each other on a lock. Padded to a cache line so neighboring links do not
// false-share.
type link struct {
	clock atomic.Int64
	_     [56]byte
}

// Network is a set of endpoints connected pairwise.
type Network struct {
	cfg     Config
	eps     []*Endpoint
	links   []link // ranks*ranks, indexed src*ranks+dst
	shards  []*linkShard
	start   time.Time
	delayed bool
	closed  atomic.Bool
	wg      sync.WaitGroup

	// inflight, when non-nil, gauges packets sent but not yet received
	// across the whole fabric (the obs.GaugeInflightMsgs metric).
	inflight *obs.Gauge
}

// Observe attaches the fabric-wide in-flight-message gauge, normally
// Session.Global().Gauge(obs.GaugeInflightMsgs). Call before traffic flows.
func (n *Network) Observe(g *obs.Gauge) { n.inflight = g }

// New builds a virtual network with cfg.Ranks endpoints.
func New(cfg Config) *Network {
	if cfg.Ranks < 1 {
		panic("simnet: need at least one rank")
	}
	n := &Network{
		cfg:     cfg,
		start:   time.Now(),
		delayed: cfg.Latency > 0 || cfg.BandwidthBps > 0,
	}
	n.eps = make([]*Endpoint, cfg.Ranks)
	for i := range n.eps {
		n.eps[i] = newEndpoint(n, i)
	}
	if n.delayed {
		n.links = make([]link, cfg.Ranks*cfg.Ranks)
		ns := cfg.Ranks
		if ns > 8 {
			ns = 8
		}
		n.shards = make([]*linkShard, ns)
		for i := range n.shards {
			n.shards[i] = &linkShard{net: n, wake: make(chan struct{}, 1)}
			n.wg.Add(1)
			go n.shards[i].run()
		}
	}
	return n
}

// Ranks returns the number of endpoints.
func (n *Network) Ranks() int { return len(n.eps) }

// Endpoint returns rank's endpoint.
func (n *Network) Endpoint(rank int) *Endpoint { return n.eps[rank] }

// Close tears the network down: in-flight packets on delayed links are
// delivered, then every inbox is closed so receivers can exit.
func (n *Network) Close() {
	if !n.closed.CompareAndSwap(false, true) {
		return
	}
	for _, s := range n.shards {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.signal()
	}
	n.wg.Wait()
	for _, ep := range n.eps {
		ep.inbox.Close()
	}
}

func (n *Network) transferTime(bytes int) time.Duration {
	d := n.cfg.Latency
	if n.cfg.BandwidthBps > 0 {
		d += time.Duration(float64(bytes) / n.cfg.BandwidthBps * float64(time.Second))
	}
	return d
}

// now returns the fabric-relative clock reading in nanoseconds.
func (n *Network) now() int64 { return int64(time.Since(n.start)) }

// deliver routes a packet, possibly through a delayed link. Sends on a
// closed fabric drop without allocating (callers have already quiesced).
func (n *Network) deliver(p Packet) {
	if n.closed.Load() {
		return
	}
	if n.inflight != nil {
		n.inflight.Add(1)
	}
	if !n.delayed {
		n.dropOrCount(n.eps[p.Dst].inbox.Push(p))
		return
	}
	// Claim the link: the packet occupies [busy, busy+xfer) of the link's
	// virtual time, serializing behind everything already claimed (FIFO
	// back-pressure — a large transfer delays subsequent ones) without a
	// lock or a per-link goroutine.
	li := p.Src*len(n.eps) + p.Dst
	l := &n.links[li]
	xfer := int64(n.transferTime(p.WireLen()))
	now := n.now()
	var at int64
	for {
		cur := l.clock.Load()
		busy := now
		if cur > busy {
			busy = cur
		}
		at = busy + xfer
		if l.clock.CompareAndSwap(cur, at) {
			break
		}
	}
	n.shards[li%len(n.shards)].add(p, at)
}

// dropOrCount rebalances the in-flight gauge when a push found a closed
// inbox (teardown races): the packet was counted sent but can never be
// received.
func (n *Network) dropOrCount(delivered bool) {
	if !delivered && n.inflight != nil {
		n.inflight.Add(-1)
	}
}

// pend is one delayed packet awaiting its delivery deadline.
type pend struct {
	at  int64
	seq uint64
	p   Packet
}

// pendHeap orders pending deliveries by (deadline, arrival sequence); the
// sequence tie-break keeps same-deadline packets in submission order.
type pendHeap []pend

func (h pendHeap) Len() int { return len(h) }
func (h pendHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h pendHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *pendHeap) Push(x any)   { *h = append(*h, x.(pend)) }
func (h *pendHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	old[n-1] = pend{}
	*h = old[:n-1]
	return v
}
func (h pendHeap) peek() pend { return h[0] }

// spinWaitNs is the deadline horizon under which a delivery shard spins
// (yielding the processor each pass) rather than arming an OS timer.
const spinWaitNs = 100_000

// linkShard times out delayed deliveries for a fixed subset of links. One
// goroutine per shard replaces the goroutine-per-directed-link design; the
// heap orders packets by their precomputed deadlines, so waiting is a
// single timer rather than a serial sleep per packet.
type linkShard struct {
	net    *Network
	mu     sync.Mutex
	h      pendHeap
	seq    uint64
	closed bool
	wake   chan struct{}
}

func (s *linkShard) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func (s *linkShard) add(p Packet, at int64) {
	s.mu.Lock()
	s.seq++
	heap.Push(&s.h, pend{at: at, seq: s.seq, p: p})
	s.mu.Unlock()
	s.signal()
}

func (s *linkShard) run() {
	defer s.net.wg.Done()
	for {
		s.mu.Lock()
		if len(s.h) == 0 {
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
			<-s.wake
			continue
		}
		head := s.h.peek()
		now := s.net.now()
		if head.at > now {
			s.mu.Unlock()
			// OS timers overshoot by far more than a fine-grained transfer
			// time (e.g. one pipelined-broadcast chunk), which would distort
			// the model; spin through short waits and only arm a timer for
			// long ones.
			if head.at-now < spinWaitNs {
				runtime.Gosched()
				continue
			}
			t := time.NewTimer(time.Duration(head.at - now))
			select {
			case <-t.C:
			case <-s.wake:
				t.Stop()
			}
			continue
		}
		heap.Pop(&s.h)
		s.mu.Unlock()
		s.net.dropOrCount(s.net.eps[head.p.Dst].inbox.Push(head.p))
	}
}

// Endpoint is one rank's attachment to the network. It implements
// fabric.Endpoint.
type Endpoint struct {
	net   *Network
	rank  int
	inbox *fabric.Queue[Packet]
}

var _ fabric.Endpoint = (*Endpoint)(nil)

func newEndpoint(n *Network, rank int) *Endpoint {
	return &Endpoint{net: n, rank: rank, inbox: fabric.NewQueue[Packet]()}
}

// Rank returns this endpoint's rank.
func (e *Endpoint) Rank() int { return e.rank }

// Size returns the number of ranks on the fabric.
func (e *Endpoint) Size() int { return len(e.net.eps) }

// Send transmits data to dst. Data is owned by the network after the call.
func (e *Endpoint) Send(dst int, kind uint8, data []byte) {
	if dst < 0 || dst >= len(e.net.eps) {
		panic(fmt.Sprintf("simnet: send to invalid rank %d", dst))
	}
	e.net.deliver(Packet{Src: e.rank, Dst: dst, Kind: kind, Data: data})
}

// SendSegs transmits framed data plus by-reference payload segments (the
// zero-copy gather path). Data and the segment list are owned by the
// network after the call; segment memory is owned by whoever decodes the
// packet on the receive side.
func (e *Endpoint) SendSegs(dst int, kind uint8, data []byte, segs []serde.Segment) {
	if dst < 0 || dst >= len(e.net.eps) {
		panic(fmt.Sprintf("simnet: send to invalid rank %d", dst))
	}
	e.net.deliver(Packet{Src: e.rank, Dst: dst, Kind: kind, Data: data, Segs: segs})
}

// Recv blocks for the next packet; ok is false once the network is closed
// and the inbox drained.
func (e *Endpoint) Recv() (Packet, bool) {
	p, ok := e.inbox.Pop()
	if ok && e.net.inflight != nil {
		e.net.inflight.Add(-1)
	}
	return p, ok
}

// TryRecv returns a packet if one is immediately available.
func (e *Endpoint) TryRecv() (Packet, bool) {
	p, ok := e.inbox.TryPop()
	if ok && e.net.inflight != nil {
		e.net.inflight.Add(-1)
	}
	return p, ok
}
