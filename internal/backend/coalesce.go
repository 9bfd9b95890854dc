package backend

import (
	"sync"
	"sync/atomic"

	"repro/internal/serde"
)

// coalescer is the per-rank send aggregator (the TaskTorrent-style message
// batching lever): small control/activation messages bound for the same
// destination rank are framed into one wire packet instead of each paying
// full per-packet fabric latency. A frame lives as long as the unit of
// work that filled it: it is shipped when that unit ends (Proc.flushSends
// after a task body, a handled packet, a landed splitmd fetch), or earlier
// when it crosses the byte threshold or holds maxCount messages. A
// finished task's outputs therefore never wait on unrelated local work.
//
// Frame layout: a self-delimiting run of [kind u8][encoded message], where
// kind is the sub-message's native wire kind (kData, kSplit, or
// kGatherData) and the message bytes are exactly what the uncoalesced
// packet would have carried. Gather sub-messages keep only their headers
// in the frame; their payloads ride the packet as by-reference segments,
// ordered by sub-message — the receive side walks the frame with a
// segment cursor.
type coalescer struct {
	p        *Proc
	maxBytes int
	maxCount int
	peers    []peerBuf

	// Bytes and messages currently buffered across all peer frames (grow
	// on add, shrink when a frame is taken for the wire). queuedMsgs is
	// also the flush gate: a work unit that queued nothing sees zero and
	// touches no peer lock. Both feed the introspection endpoint.
	queuedBytes atomic.Int64
	queuedMsgs  atomic.Int64
}

// peerBuf accumulates the pending frame for one destination rank. mu is
// held across the wire send as well as the append, so frames to one peer
// reach the fabric in the order they were filled even when one worker
// flushes a frame another is still adding to.
type peerBuf struct {
	mu    sync.Mutex
	buf   *serde.Buffer // nil when no messages are pending
	count int
	// segs collects the by-reference payload segments of the frame's
	// gather sub-messages, in sub-message order; segBytes is their total
	// wire size (it counts toward the frame's flush threshold, since the
	// packet occupies the link for header + segment bytes).
	segs     []serde.Segment
	segBytes int
}

func newCoalescer(p *Proc, ranks, maxBytes, maxCount int) *coalescer {
	return &coalescer{p: p, maxBytes: maxBytes, maxCount: maxCount, peers: make([]peerBuf, ranks)}
}

// add appends one encoded message to dest's pending frame, taking ownership
// of b (its bytes are copied into the frame and the buffer is released).
// Crossing either cap sends the frame immediately.
func (c *coalescer) add(dest int, kind uint8, b *serde.Buffer) {
	c.addSegs(dest, kind, b, nil)
}

// addSegs is add for gather messages: b holds the framed headers, segs
// the by-reference payload. Segment bytes count toward the byte
// threshold so a frame's wire occupancy, not just its header run,
// bounds the batching latency.
func (c *coalescer) addSegs(dest int, kind uint8, b *serde.Buffer, segs []serde.Segment) {
	pb := &c.peers[dest]
	sb := serde.SegmentBytes(segs)
	pb.mu.Lock()
	if pb.buf == nil {
		// Sized for this message, not for the cap: most frames end with
		// their task after a message or two; a fan grows it by appending.
		pb.buf = serde.GetBuffer(1 + b.Len())
	}
	pb.buf.PutU8(kind)
	pb.buf.PutRaw(b.Bytes())
	pb.segs = append(pb.segs, segs...)
	pb.segBytes += sb
	pb.count++
	c.queuedBytes.Add(int64(1 + b.Len() + sb))
	c.queuedMsgs.Add(1)
	if pb.buf.Len()+pb.segBytes >= c.maxBytes || pb.count >= c.maxCount {
		c.sendLocked(dest, pb)
	}
	pb.mu.Unlock()
	b.Release()
}

// sendLocked ships dest's pending frame, if any. The caller holds pb.mu.
func (c *coalescer) sendLocked(dest int, pb *peerBuf) {
	if pb.buf == nil {
		return
	}
	c.queuedBytes.Add(-int64(pb.buf.Len() + pb.segBytes))
	c.queuedMsgs.Add(-int64(pb.count))
	c.p.flushFrame(dest, pb.buf, pb.count, pb.segs)
	pb.buf, pb.segs, pb.count, pb.segBytes = nil, nil, 0, 0
}

// flushAll ships every destination's pending frame.
func (c *coalescer) flushAll() {
	for d := range c.peers {
		pb := &c.peers[d]
		pb.mu.Lock()
		c.sendLocked(d, pb)
		pb.mu.Unlock()
	}
}
