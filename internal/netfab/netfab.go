// Package netfab is the real-network fabric: a TCP (or Unix-domain
// socket) implementation of fabric.Endpoint where ranks are separate OS
// processes, standing in for the MPI/UCX transports under the paper's
// PaRSEC and MADNESS backends. The design goals mirror what the runtime's
// wire path already earns in-process:
//
//   - Per-peer persistent connections carrying length-prefixed frames; a
//     frame is one fabric packet, and the transport originates none of
//     its own after the bootstrap hello.
//   - Vectored zero-copy sends: every frame queued behind an in-flight
//     write, gathered payload segments included, is handed to the kernel
//     as one net.Buffers writev — the runtime's only send batching — so a
//     moved tile travels pool -> socket with no intermediate copy. After
//     the write, segment memory returns to its pool.
//   - Receives land whole frames into pooled buffers — framed bytes into
//     the serde buffer pool, float64 segments into the float64 pool — so
//     scatter-decoded receive views alias the landed memory unchanged; the
//     peer's reader then calls the receive handler on the packet itself.
//   - Bounded per-peer in-flight bytes: SendSegs parks once a peer's
//     queued bytes exceed MaxInflight and resumes as the writer drains,
//     providing the backpressure a virtual fabric never needed. A handler
//     relays through Relay, which never parks: two readers each parked on
//     the other's full queue would wait forever.
//
// Bootstrap is rank-0 coordinated: every rank opens a data listener, rank
// 0 additionally listens on the well-known coordinator address, collects
// each rank's data address, and distributes the full peer table; the mesh
// is then built with rank i dialing every rank j < i.
package netfab

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/serde"
)

// fHello is the one transport-internal frame kind (at or above
// fabric.KindReserved, so it can never collide with a runtime wire kind):
// the mesh handshake, body = u32 rank.
const fHello = fabric.KindReserved

// Segment types in the frame segment directory.
const (
	segB   = 0
	segF64 = 1
)

// Config describes one rank's attachment to the fabric.
type Config struct {
	// Transport is "tcp" (default) or "unix" (same-host Unix-domain
	// sockets).
	Transport string
	// Rank and Size identify this process in the cluster.
	Rank, Size int
	// Coord is the coordinator address: rank 0 listens on it, every other
	// rank dials it. For tcp a host:port; for unix a socket path.
	Coord string
	// CoordListener, when non-nil on rank 0, is a pre-bound coordinator
	// listener (test harnesses bind it first to avoid address races);
	// Coord is then ignored on rank 0.
	CoordListener net.Listener
	// Listen overrides the data listener address (tcp only; default
	// 127.0.0.1:0).
	Listen string
	// MaxInflight bounds per-peer queued (unwritten) bytes; SendSegs
	// parks above it. Zero or less means the 8 MiB default.
	MaxInflight int
	// DialTimeout bounds bootstrap patience per connection (default 10s).
	DialTimeout time.Duration
}

func (c *Config) fill() error {
	if c.Transport == "" {
		c.Transport = "tcp"
	}
	if c.Transport != "tcp" && c.Transport != "unix" {
		return fmt.Errorf("netfab: unknown transport %q", c.Transport)
	}
	if c.Size < 1 || c.Rank < 0 || c.Rank >= c.Size {
		return fmt.Errorf("netfab: bad rank/size %d/%d", c.Rank, c.Size)
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 8 << 20
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 10 * time.Second
	}
	return nil
}

// Endpoint is one rank's attachment to the real-network fabric. It
// implements fabric.Endpoint and fabric.StatSource.
type Endpoint struct {
	rank, size int
	cfg        Config
	peers      []*peer // indexed by rank; peers[rank] == nil

	h         func(fabric.Packet)
	startOnce sync.Once
	started   chan struct{} // closed by Start, once h is set
	pull      pullQueue     // Recv's queue

	closed atomic.Bool
	readWG sync.WaitGroup
}

var (
	_ fabric.Endpoint   = (*Endpoint)(nil)
	_ fabric.StatSource = (*Endpoint)(nil)
)

// Bootstrap joins the cluster: it opens this rank's data listener, runs
// the rank-0 coordination round to learn every peer's address, dials the
// mesh, and returns an endpoint with its writer goroutines running; Start
// launches the readers.
func Bootstrap(cfg Config) (*Endpoint, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	e := &Endpoint{
		rank:    cfg.Rank,
		size:    cfg.Size,
		cfg:     cfg,
		peers:   make([]*peer, cfg.Size),
		started: make(chan struct{}),
	}
	e.pull.cond.L = &e.pull.mu
	if cfg.Size == 1 {
		return e, nil
	}
	ln, addr, err := e.listenData()
	if err != nil {
		return nil, err
	}
	table, err := e.coordinate(addr)
	if err != nil {
		ln.Close()
		return nil, err
	}
	if err := e.buildMesh(ln, table); err != nil {
		ln.Close()
		return nil, err
	}
	ln.Close()
	for _, pr := range e.peers {
		if pr == nil {
			continue
		}
		go pr.writeLoop(e)
	}
	return e, nil
}

// Start installs the receive handler and launches one reader goroutine per
// peer, each calling h on the packets its link lands. Only the first call
// counts.
func (e *Endpoint) Start(h func(fabric.Packet)) {
	e.startOnce.Do(func() {
		e.h = h
		close(e.started)
		for _, pr := range e.peers {
			if pr != nil {
				e.readWG.Add(1)
				go e.readLoop(pr)
			}
		}
	})
}

// listenData opens this rank's data listener and returns its dialable
// address.
func (e *Endpoint) listenData() (net.Listener, string, error) {
	if e.cfg.Transport == "unix" {
		path := filepath.Join(os.TempDir(),
			fmt.Sprintf("ttg-nf-%d-%d.sock", os.Getpid(), e.rank))
		os.Remove(path)
		ln, err := net.Listen("unix", path)
		return ln, path, err
	}
	addr := e.cfg.Listen
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	return ln, ln.Addr().String(), nil
}

// coordNetwork infers the coordinator's network from its address form: a
// path (contains a separator) is a Unix socket, anything else host:port.
func coordNetwork(addr string) string {
	if strings.ContainsRune(addr, os.PathSeparator) || strings.HasPrefix(addr, "@") {
		return "unix"
	}
	return "tcp"
}

// coordinate runs the bootstrap round: rank 0 collects {rank, dataAddr}
// registrations on the coordinator listener and answers each with the
// full table; other ranks dial in (with retry — rank 0 may not be up
// yet), register, and read the table back.
func (e *Endpoint) coordinate(dataAddr string) ([]string, error) {
	if e.rank == 0 {
		ln := e.cfg.CoordListener
		if ln == nil {
			var err error
			if coordNetwork(e.cfg.Coord) == "unix" {
				os.Remove(e.cfg.Coord)
			}
			ln, err = net.Listen(coordNetwork(e.cfg.Coord), e.cfg.Coord)
			if err != nil {
				return nil, fmt.Errorf("netfab: coordinator listen: %w", err)
			}
		}
		defer ln.Close()
		table := make([]string, e.size)
		table[0] = dataAddr
		conns := make([]net.Conn, 0, e.size-1)
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		for got := 0; got < e.size-1; got++ {
			c, err := ln.Accept()
			if err != nil {
				return nil, fmt.Errorf("netfab: coordinator accept: %w", err)
			}
			conns = append(conns, c)
			var head [8]byte
			if _, err := io.ReadFull(c, head[:]); err != nil {
				return nil, fmt.Errorf("netfab: registration read: %w", err)
			}
			r := int(binary.LittleEndian.Uint32(head[:4]))
			alen := int(binary.LittleEndian.Uint32(head[4:]))
			ab := make([]byte, alen)
			if _, err := io.ReadFull(c, ab); err != nil {
				return nil, fmt.Errorf("netfab: registration read: %w", err)
			}
			if r < 1 || r >= e.size || table[r] != "" {
				return nil, fmt.Errorf("netfab: bad registration for rank %d", r)
			}
			table[r] = string(ab)
		}
		var tb []byte
		for _, a := range table {
			var l [4]byte
			binary.LittleEndian.PutUint32(l[:], uint32(len(a)))
			tb = append(tb, l[:]...)
			tb = append(tb, a...)
		}
		for _, c := range conns {
			if _, err := c.Write(tb); err != nil {
				return nil, fmt.Errorf("netfab: table write: %w", err)
			}
		}
		return table, nil
	}

	c, err := dialRetry(coordNetwork(e.cfg.Coord), e.cfg.Coord, e.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("netfab: dial coordinator: %w", err)
	}
	defer c.Close()
	var head [8]byte
	binary.LittleEndian.PutUint32(head[:4], uint32(e.rank))
	binary.LittleEndian.PutUint32(head[4:], uint32(len(dataAddr)))
	if _, err := c.Write(append(head[:], dataAddr...)); err != nil {
		return nil, fmt.Errorf("netfab: registration write: %w", err)
	}
	table := make([]string, e.size)
	for i := range table {
		var l [4]byte
		if _, err := io.ReadFull(c, l[:]); err != nil {
			return nil, fmt.Errorf("netfab: table read: %w", err)
		}
		ab := make([]byte, binary.LittleEndian.Uint32(l[:]))
		if _, err := io.ReadFull(c, ab); err != nil {
			return nil, fmt.Errorf("netfab: table read: %w", err)
		}
		table[i] = string(ab)
	}
	return table, nil
}

// dialRetry dials with linear backoff until the deadline: during
// bootstrap, peers race their listeners up.
func dialRetry(network, addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	for {
		c, err := net.DialTimeout(network, addr, time.Until(deadline))
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// buildMesh establishes one connection per peer: rank i dials every j < i
// (announcing itself with a hello frame) and accepts one connection from
// every j > i (learning the peer from its hello).
func (e *Endpoint) buildMesh(ln net.Listener, table []string) error {
	type acc struct {
		rank int
		conn net.Conn
		err  error
	}
	expect := e.size - 1 - e.rank
	accCh := make(chan acc, expect)
	for k := 0; k < expect; k++ {
		go func() {
			c, err := ln.Accept()
			if err != nil {
				accCh <- acc{err: err}
				return
			}
			r, err := readHello(c)
			if err != nil {
				c.Close()
				accCh <- acc{err: err}
				return
			}
			accCh <- acc{rank: r, conn: c}
		}()
	}
	for j := 0; j < e.rank; j++ {
		c, err := dialRetry(e.cfg.Transport, table[j], e.cfg.DialTimeout)
		if err != nil {
			return fmt.Errorf("netfab: dial rank %d: %w", j, err)
		}
		if err := writeHello(c, e.rank); err != nil {
			return fmt.Errorf("netfab: hello to rank %d: %w", j, err)
		}
		e.peers[j] = newPeer(j, c, e.cfg.MaxInflight)
	}
	for k := 0; k < expect; k++ {
		a := <-accCh
		if a.err != nil {
			return fmt.Errorf("netfab: mesh accept: %w", a.err)
		}
		if a.rank <= e.rank || a.rank >= e.size || e.peers[a.rank] != nil {
			a.conn.Close()
			return fmt.Errorf("netfab: unexpected hello from rank %d", a.rank)
		}
		e.peers[a.rank] = newPeer(a.rank, a.conn, e.cfg.MaxInflight)
	}
	return nil
}

// Rank returns this endpoint's rank.
func (e *Endpoint) Rank() int { return e.rank }

// Size returns the cluster size.
func (e *Endpoint) Size() int { return e.size }

// Send transmits framed data to dst. The data slice is read by the
// writer goroutine but never recycled (broadcast packets share arrays
// across sends).
func (e *Endpoint) Send(dst int, kind uint8, data []byte) {
	e.SendSegs(dst, kind, data, nil)
}

// SendSegs transmits framed data plus by-reference payload segments,
// parking while dst's queued bytes exceed MaxInflight. The segment memory
// is owned by the fabric: once the bytes are on the wire it returns to its
// pool, completing the pool -> socket zero-copy path. A self-send calls
// the handler directly (parity with simnet); a frame to a peer longer than
// maxFrameLen, or with more than maxFrameSegs segments, panics, naming its
// size or its count.
func (e *Endpoint) SendSegs(dst int, kind uint8, data []byte, segs []serde.Segment) {
	e.send(dst, kind, data, segs, true)
}

// Relay is SendSegs without the park: a handler forwarding what it
// received never waits on a peer's credit.
func (e *Endpoint) Relay(dst int, kind uint8, data []byte, segs []serde.Segment) {
	e.send(dst, kind, data, segs, false)
}

func (e *Endpoint) send(dst int, kind uint8, data []byte, segs []serde.Segment, park bool) {
	if dst == e.rank {
		<-e.started
		e.h(fabric.Packet{Src: e.rank, Dst: dst, Kind: kind, Data: data, Segs: segs})
		return
	}
	if len(segs) > maxFrameSegs {
		panic(fmt.Sprintf("netfab: frame of %d segments to rank %d exceeds the protocol maximum of %d", len(segs), dst, maxFrameSegs))
	}
	if dst < 0 || dst >= e.size {
		panic(fmt.Sprintf("netfab: send to invalid rank %d", dst))
	}
	if rest := frameRest(data, segs); rest > maxFrameLen {
		panic(fmt.Sprintf("netfab: frame of %d bytes to rank %d exceeds the protocol maximum of %d", rest, dst, maxFrameLen))
	}
	e.peers[dst].enqueue(buildFrame(kind, data, segs), park)
}

// Recv is a pull adapter outside fabric.Endpoint (the layer benchmarks'
// ping-pong probe and this package's tests use it): its first call Starts
// the endpoint into a queue, and each call blocks for the next packet; ok
// is false once the endpoint is closed and the queue drained.
func (e *Endpoint) Recv() (fabric.Packet, bool) {
	e.Start(e.pull.push)
	return e.pull.pop()
}

// pullQueue is Recv's unbounded FIFO: a bounded one could park a reader.
type pullQueue struct {
	mu     sync.Mutex
	cond   sync.Cond
	pkts   []fabric.Packet
	closed bool
}

func (q *pullQueue) push(p fabric.Packet) {
	q.mu.Lock()
	q.pkts = append(q.pkts, p)
	q.mu.Unlock()
	q.cond.Signal()
}

func (q *pullQueue) pop() (fabric.Packet, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.pkts) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.pkts) == 0 {
		return fabric.Packet{}, false
	}
	p := q.pkts[0]
	q.pkts[0] = fabric.Packet{}
	q.pkts = q.pkts[1:]
	return p, true
}

func (q *pullQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// PeerStats implements fabric.StatSource.
func (e *Endpoint) PeerStats() []fabric.PeerStat {
	out := make([]fabric.PeerStat, 0, e.size-1)
	for _, pr := range e.peers {
		if pr == nil {
			continue
		}
		out = append(out, fabric.PeerStat{
			Peer:        pr.rank,
			TxBytes:     pr.txBytes.Load(),
			RxBytes:     pr.rxBytes.Load(),
			TxFrames:    pr.txFrames.Load(),
			RxFrames:    pr.rxFrames.Load(),
			WritevSegs:  pr.writevSegs.Load(),
			WritevCalls: pr.writevCalls.Load(),
			QueuedBytes: pr.queued.Load(),
		})
	}
	return out
}

// closeTimeout bounds the graceful-shutdown handshake: the time allowed
// for every peer to finish sending and half-close.
const closeTimeout = 5 * time.Second

// Close tears the endpoint down gracefully: drain every peer's send
// queue, half-close the connections (signalling "no more frames"), read
// until every peer has done the same — so frames still in flight reach
// the handler — then close the sockets and Recv's queue. An endpoint never
// Started reads those last frames into Recv's queue. Safe to call once the
// runtime has quiesced (post-fence).
func (e *Endpoint) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	e.Start(e.pull.push)
	for _, pr := range e.peers {
		if pr != nil {
			pr.beginClose()
		}
	}
	for _, pr := range e.peers {
		if pr != nil {
			<-pr.done // writer drained and half-closed
		}
	}
	readersDone := make(chan struct{})
	go func() {
		e.readWG.Wait()
		close(readersDone)
	}()
	select {
	case <-readersDone:
	case <-time.After(closeTimeout):
		// A peer never half-closed (crashed or wedged); force its reader
		// out.
		for _, pr := range e.peers {
			if pr != nil {
				pr.conn.Close()
			}
		}
		<-readersDone
	}
	for _, pr := range e.peers {
		if pr != nil {
			pr.conn.Close()
		}
	}
	e.pull.close()
	return nil
}

// writeHello sends the mesh handshake identifying the dialing rank.
func writeHello(c net.Conn, rank int) error {
	var f [13]byte
	binary.LittleEndian.PutUint32(f[:4], 9+4) // kind + dataLen + nsegs + body
	f[4] = fHello
	binary.LittleEndian.PutUint32(f[5:9], 4)
	binary.LittleEndian.PutUint32(f[9:13], 0)
	var body [4]byte
	binary.LittleEndian.PutUint32(body[:], uint32(rank))
	bufs := net.Buffers{f[:], body[:]}
	_, err := bufs.WriteTo(c)
	return err
}

// readHello reads the handshake frame from a freshly accepted conn.
func readHello(c net.Conn) (int, error) {
	var f [13]byte
	if _, err := io.ReadFull(c, f[:]); err != nil {
		return 0, err
	}
	if f[4] != fHello || binary.LittleEndian.Uint32(f[5:9]) != 4 {
		return 0, fmt.Errorf("netfab: bad hello frame")
	}
	var body [4]byte
	if _, err := io.ReadFull(c, body[:]); err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint32(body[:])), nil
}
