package serde

import (
	"fmt"
	"sync/atomic"
)

// Zero-copy wire path, sender half (the receive half is the view-decode
// machinery below). Codecs whose payload already lives in stable slices —
// dense tiles, []float64, []byte — can opt into the gather protocol: one
// small encoded header plus iovec-style references to the payload memory.
// Transports then ship the header as the packet's framed bytes but pass
// the payload segments to the fabric by reference, skipping the archive
// flattening on send and the copy-out on receive (the TaskTorrent
// large-message model: tiny serialized header, payload by reference).
//
// The segments stay typed ([]byte or []float64) rather than being
// reinterpreted as raw bytes: Go cannot alias a []float64 as []byte
// without the unsafe package, which this layer deliberately stays out of.
// Cost models and wire accounting use the segment byte size, so a
// gathered payload is charged exactly like the bytes it stands for.

// Segment is one payload reference of a gathered value: exactly one of B
// or F64 is set. Segments are unowned references into the value's own
// memory until a transport snapshots them (core.SendPlan.Snapshot says
// when); after a receive, the decoded value owns them.
type Segment struct {
	B   []byte
	F64 []float64
}

// Bytes returns the segment's size in wire bytes.
func (s Segment) Bytes() int {
	if s.F64 != nil {
		return 8 * len(s.F64)
	}
	return len(s.B)
}

// SegmentBytes sums the wire size of a segment list.
func SegmentBytes(segs []Segment) int {
	n := 0
	for _, s := range segs {
		n += s.Bytes()
	}
	return n
}

// Gatherer is the optional Codec extension for zero-copy transport. A
// codec implementing it may still decline per value (Segments returns
// ok=false, e.g. for phantom tiles); the transport then falls back to the
// copy-encode path.
type Gatherer interface {
	// Segments appends v's metadata header to hdr (shape, lengths —
	// everything Scatter needs besides the payload) and returns the
	// payload as segments referencing v's own memory, copy-free. The
	// header must not reference v's memory: transports concatenate it
	// into shared frame buffers.
	Segments(hdr *Buffer, v any) (segs []Segment, ok bool)
	// Scatter rebuilds a value from a header and its payload segments.
	// The value takes ownership of the segment memory and may alias it
	// (a recv view); it must not retain hdr's backing array, which the
	// transport recycles after the call.
	Scatter(hdr *Buffer, segs []Segment) any
}

// OneF64Segment returns the payload of a value that gathers as a single
// float64 segment whose length its header records as n. Both numbers come
// off the wire, so they must agree exactly: landed segments are pooled, and
// re-slicing one with len < n ≤ cap would expose stale pool memory as data.
// Scatter implementations call it (or OneByteSegment) instead of slicing.
func OneF64Segment(segs []Segment, n int) []float64 {
	if len(segs) != 1 || len(segs[0].F64) != n || len(segs[0].B) != 0 {
		panic(fmt.Sprintf("serde: gather header records one segment of %d float64s, got %s", n, describeSegments(segs)))
	}
	return segs[0].F64
}

// OneByteSegment is OneF64Segment for a single byte segment.
func OneByteSegment(segs []Segment, n int) []byte {
	if len(segs) != 1 || len(segs[0].B) != n || len(segs[0].F64) != 0 {
		panic(fmt.Sprintf("serde: gather header records one segment of %d bytes, got %s", n, describeSegments(segs)))
	}
	return segs[0].B
}

func describeSegments(segs []Segment) string {
	if len(segs) == 0 {
		return "no segments"
	}
	return fmt.Sprintf("%d segments, the first %d float64s / %d bytes", len(segs), len(segs[0].F64), len(segs[0].B))
}

// GathererByTag resolves a wire tag to its codec's gather extension
// (receive path).
func GathererByTag(tag uint32) (Gatherer, bool) {
	regMu.RLock()
	e := byTag[tag]
	regMu.RUnlock()
	if e == nil {
		panic(fmt.Sprintf("serde: unknown wire tag %d", tag))
	}
	g, ok := e.codec.(Gatherer)
	return g, ok
}

// GatherThreshold is the default minimum wire size (bytes) for a value to
// take the gather path: below 1 KiB the fixed per-segment bookkeeping
// costs more than the memcpy it saves. core.SendCaps.GatherThreshold
// overrides it (or, negative, turns gather sends off) per runtime.
const GatherThreshold = 1024

// Receive views. A scatter-decoded value aliases pooled receive memory
// instead of copying out of it; while the runtime still owns that value
// the view holds a lease on the buffer. The lease ends when the payload
// returns to its pool (Release) or when the runtime disowns the value to
// the application (a task body takes it exclusively); a lease outstanding
// after quiescence means a view is parked somewhere — pinned pool memory
// the graph doctor reports.

// ViewLease is implemented by view-decoded values (e.g. *tile.Tile) whose
// payload aliases a pooled receive buffer. The runtime calls EndViewLease
// when it stops being responsible for the buffer; implementations must
// make it idempotent and call NoteViewEnd exactly once per decoded view.
type ViewLease interface{ EndViewLease() }

var liveRecvViews atomic.Int64

// NoteViewDecode registers one live receive view; codec Scatter
// implementations that alias segment memory call it (paired with
// NoteViewEnd from the value's EndViewLease).
func NoteViewDecode() { liveRecvViews.Add(1) }

// NoteViewEnd retires one live receive view.
func NoteViewEnd() { liveRecvViews.Add(-1) }

// LiveRecvViews reports the number of receive views whose pooled buffers
// the runtime still owns (process-global; diagnostics and the doctor's
// post-fence leak check read it).
func LiveRecvViews() int64 { return liveRecvViews.Load() }
