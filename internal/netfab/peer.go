package netfab

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/pool"
	"repro/internal/serde"
)

// Frame layout (everything little-endian, fixed-width so the reader is a
// sequence of ReadFulls):
//
//	[u32 rest]     bytes remaining after this field
//	[u8  kind]     fabric packet kind or transport-internal kind
//	[u32 dataLen]  framed data bytes
//	[u32 nsegs]    payload segment count
//	data           dataLen bytes
//	segdir         nsegs x ([u8 type][u32 elems])
//	payloads       segment payload bytes, in directory order
//
// The sender never flattens this layout: header, data, directory, and
// every segment payload are separate iovecs in one vectored write.
const frameHeadLen = 13

// maxFrameLen is the protocol maximum of a frame's rest field: 256 MiB, a
// float64 tile of order 5792. The bench workloads' tiles are 8 and
// 128 KiB. The reader refuses a longer frame before it allocates anything
// for it, so a 13-byte header cannot make it allocate 4 GiB; the sender
// refuses to build one.
const maxFrameLen = 256 << 20

// maxFrameSegs is the protocol maximum of a frame's segment count: 65 536.
// The repository's frames carry one segment per tile, or one per present
// child of an MRA node (2^d, eight at d = 3). Each segment costs the
// reader a directory entry and a slot of the segment slice, ten times the
// five bytes its entry takes on the wire, so the reader refuses a larger
// count before it allocates either; the sender refuses to build one.
const maxFrameSegs = 1 << 16

// outFrame is one frame queued on a peer's writer.
type outFrame struct {
	bufs    net.Buffers // iovecs: head, [data], [segdir], seg payloads...
	head    []byte      // pooled scratch backing bufs[0] (and segdir)
	segdir  []byte      // pooled scratch, nil when nsegs == 0
	segs    []serde.Segment
	wireLen int // total bytes across bufs
}

// frameRest is the rest field of a frame carrying data and segs: every
// byte after the field itself.
func frameRest(data []byte, segs []serde.Segment) int {
	return frameHeadLen - 4 + len(data) + 5*len(segs) + serde.SegmentBytes(segs)
}

// buildFrame assembles the iovec list for one frame without copying data
// or segment payloads.
func buildFrame(kind uint8, data []byte, segs []serde.Segment) outFrame {
	rest := frameRest(data, segs)
	head := pool.Bytes(frameHeadLen)[:frameHeadLen]
	binary.LittleEndian.PutUint32(head[:4], uint32(rest))
	head[4] = kind
	binary.LittleEndian.PutUint32(head[5:9], uint32(len(data)))
	binary.LittleEndian.PutUint32(head[9:13], uint32(len(segs)))
	f := outFrame{head: head, segs: segs, wireLen: 4 + rest}
	f.bufs = make(net.Buffers, 0, 3+len(segs))
	f.bufs = append(f.bufs, head)
	if len(data) > 0 {
		f.bufs = append(f.bufs, data)
	}
	if len(segs) > 0 {
		dir := pool.Bytes(5 * len(segs))[:5*len(segs)]
		for i, s := range segs {
			if s.F64 != nil {
				dir[5*i] = segF64
				binary.LittleEndian.PutUint32(dir[5*i+1:], uint32(len(s.F64)))
			} else {
				dir[5*i] = segB
				binary.LittleEndian.PutUint32(dir[5*i+1:], uint32(len(s.B)))
			}
		}
		f.segdir = dir
		f.bufs = append(f.bufs, dir)
		for _, s := range segs {
			if s.F64 != nil {
				f.bufs = append(f.bufs, f64Bytes(s.F64))
			} else if len(s.B) > 0 {
				f.bufs = append(f.bufs, s.B)
			}
		}
	}
	return f
}

// recycle returns the frame's pooled memory after its bytes are on the
// wire: the scratch and the segments, which the fabric owns (the SendSegs
// contract). The data slice is the caller's and is never recycled —
// broadcasts share one array across sends.
func (f *outFrame) recycle() {
	pool.PutBytes(f.head)
	if f.segdir != nil {
		pool.PutBytes(f.segdir)
	}
	for _, s := range f.segs {
		if s.F64 != nil {
			pool.PutFloat64s(s.F64)
		} else if s.B != nil {
			pool.PutBytes(s.B)
		}
	}
}

// peer is one remote rank's persistent connection: a send queue drained
// by a writer goroutine (which batches every queued frame into a single
// vectored write), plus link counters.
type peer struct {
	rank        int
	conn        net.Conn
	maxInflight int

	mu      sync.Mutex
	cond    *sync.Cond
	q       []outFrame
	qBytes  int
	closing bool
	done    chan struct{}

	txBytes, rxBytes   atomic.Int64
	txFrames, rxFrames atomic.Int64
	writevSegs         atomic.Int64
	writevCalls        atomic.Int64
	queued             atomic.Int64
}

func newPeer(rank int, conn net.Conn, maxInflight int) *peer {
	if tc, ok := conn.(*net.TCPConn); ok {
		// Frames are explicitly batched by the writer; Nagle on top only
		// adds latency to small control frames.
		tc.SetNoDelay(true)
	}
	pr := &peer{rank: rank, conn: conn, maxInflight: maxInflight, done: make(chan struct{})}
	pr.cond = sync.NewCond(&pr.mu)
	return pr
}

// enqueue hands a frame to the writer; with park set it first waits while
// the peer's queued bytes exceed the in-flight bound.
func (pr *peer) enqueue(f outFrame, park bool) {
	pr.mu.Lock()
	for park && pr.qBytes > pr.maxInflight && !pr.closing {
		pr.cond.Wait()
	}
	if pr.closing {
		// Late send during teardown (the runtime has quiesced; nothing
		// counted can be in here) — drop, releasing owned memory.
		pr.mu.Unlock()
		f.recycle()
		return
	}
	pr.q = append(pr.q, f)
	pr.qBytes += f.wireLen
	pr.queued.Store(int64(pr.qBytes))
	pr.mu.Unlock()
	pr.cond.Broadcast()
}

// beginClose tells the writer to drain what is queued and half-close.
func (pr *peer) beginClose() {
	pr.mu.Lock()
	pr.closing = true
	pr.mu.Unlock()
	pr.cond.Broadcast()
}

// writeLoop drains the send queue: every frame queued at wake-up joins
// one net.Buffers vectored write (one writev per batch, segments and all
// — zero flattening), then its pooled memory is recycled and parked
// senders are released. On closing it flushes the tail and half-closes
// the connection so the peer's reader sees a clean EOF.
func (pr *peer) writeLoop(e *Endpoint) {
	defer close(pr.done)
	var batch []outFrame
	var iov [][]byte
	for {
		pr.mu.Lock()
		for len(pr.q) == 0 && !pr.closing {
			pr.cond.Wait()
		}
		if len(pr.q) == 0 {
			pr.mu.Unlock()
			break // closing and drained
		}
		batch = append(batch[:0], pr.q...)
		pr.q = pr.q[:0]
		pr.mu.Unlock()

		iov = iov[:0]
		total := 0
		for i := range batch {
			iov = append(iov, batch[i].bufs...)
			total += batch[i].wireLen
		}
		nIov := len(iov)
		// net.Buffers.WriteTo consumes its receiver (niling entries as
		// they land), so hand it a header over iov's array; iov itself is
		// rebuilt from scratch next batch.
		bufs := net.Buffers(iov)
		if _, err := bufs.WriteTo(pr.conn); err != nil {
			if !e.closed.Load() {
				panic(fmt.Sprintf("netfab: write to rank %d: %v", pr.rank, err))
			}
			for i := range batch {
				batch[i].recycle()
			}
			break
		}
		pr.txBytes.Add(int64(total))
		pr.txFrames.Add(int64(len(batch)))
		pr.writevCalls.Add(1)
		pr.writevSegs.Add(int64(nIov))
		for i := range batch {
			batch[i].recycle()
		}
		pr.mu.Lock()
		pr.qBytes -= total
		pr.queued.Store(int64(pr.qBytes))
		pr.mu.Unlock()
		pr.cond.Broadcast()
	}
	if cw, ok := pr.conn.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
}
