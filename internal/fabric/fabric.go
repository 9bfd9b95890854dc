// Package fabric defines the narrow transport contract the runtime
// backends speak: point-to-point framed sends with optional by-reference
// payload segments (the iovec of the zero-copy wire path), a blocking
// inbox, and the registered-region facility behind the split-metadata
// rendezvous protocol. Two fabrics implement it — internal/simnet, the
// process-local virtual-time cluster, and internal/netfab, the real
// TCP/Unix-socket transport where ranks are separate OS processes — so
// the engine in internal/backend is written once against this interface
// and the choice of wire is a configuration value, exactly as the paper's
// TTG runs unchanged over PaRSEC's and MADNESS's transports.
package fabric

import "repro/internal/serde"

// Packet is one message on a fabric. Kind is an application-defined
// dispatch byte; fabrics do not interpret it. Kinds at or above
// KindReserved are reserved for fabric-internal control traffic and must
// not be used by applications.
type Packet struct {
	Src, Dst int
	Kind     uint8
	Data     []byte
	// Segs carries gathered payload segments (the zero-copy wire path).
	// In-process fabrics pass the memory by reference; network fabrics
	// write the segment bytes after Data on the wire and land them in
	// pooled memory on the receive side, so decoded views alias the
	// landed buffers either way.
	Segs []serde.Segment
}

// WireLen is the packet's size as charged on the wire: framed data plus
// all by-reference segment bytes.
func (p *Packet) WireLen() int { return len(p.Data) + serde.SegmentBytes(p.Segs) }

// KindReserved is the first packet kind reserved for fabric-internal
// frames (hello, pull request/response); application kinds must stay
// below it.
const KindReserved uint8 = 0xF0

// RMAHandle names a registered memory region or object on some rank; it
// is small and travels inside eager messages (the splitmd metadata
// phase).
type RMAHandle struct {
	Owner int
	ID    uint64
}

// Endpoint is one rank's attachment to a fabric. Implementations must be
// safe for concurrent use: workers send while the comm thread receives.
type Endpoint interface {
	// Rank returns this endpoint's rank; Size the number of ranks.
	Rank() int
	Size() int

	// Send transmits framed data to dst. The data slice is owned by the
	// fabric after the call for reading, but the fabric must not recycle
	// it: tree broadcasts hand one array to several sends.
	Send(dst int, kind uint8, data []byte)

	// SendSegs transmits framed data plus by-reference payload segments
	// (the zero-copy gather path). Data follows the Send ownership rule;
	// segment memory is owned by the fabric outright — an in-process
	// fabric hands it to the receiver's decoder, a network fabric
	// returns it to its pool once the bytes are on the wire.
	SendSegs(dst int, kind uint8, data []byte, segs []serde.Segment)

	// Recv blocks for the next packet; ok is false once the fabric is
	// closed and the inbox drained. TryRecv returns immediately.
	Recv() (Packet, bool)
	TryRecv() (Packet, bool)

	// RegisterObject exposes an object (e.g. a tile whose contiguous
	// payload the splitmd protocol will fetch) for remote pulls and
	// returns its handle. Deregister releases a region registered on
	// this endpoint and returns the registered value (nil when unknown)
	// so callers can recycle runtime-owned buffers. RegionCount reports
	// how many regions are currently registered (leak diagnostics).
	RegisterObject(v any) RMAHandle
	Deregister(h RMAHandle) any
	RegionCount() int

	// FetchObject resolves the remote object named by h, blocking until
	// it is available; bytes is the payload size for fabrics that model
	// transfer time. owned reports whether the returned object is a
	// requester-owned temporary (network fabrics decode a fresh copy the
	// caller should release after use) or the owner's live object
	// (in-process fabrics), which must not be mutated or released.
	FetchObject(h RMAHandle, bytes int) (obj any, owned bool, err error)
}

// EncodeHandle appends h's wire form; DecodeHandle reads it back and
// returns the remaining bytes. The encoding is fixed-width (HandleLen
// bytes) so transports can reserve space for it.
func EncodeHandle(buf []byte, h RMAHandle) []byte {
	buf = append(buf, byte(h.Owner), byte(h.Owner>>8), byte(h.Owner>>16), byte(h.Owner>>24))
	for i := 0; i < 8; i++ {
		buf = append(buf, byte(h.ID>>(8*i)))
	}
	return buf
}

// DecodeHandle reads a handle written by EncodeHandle. ok is false, and
// nothing is consumed, when buf is shorter than HandleLen: handles arrive
// in packets off the network, so the length is the sender's claim.
func DecodeHandle(buf []byte) (h RMAHandle, rest []byte, ok bool) {
	if len(buf) < HandleLen {
		return RMAHandle{}, buf, false
	}
	h.Owner = int(uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24)
	for i := 0; i < 8; i++ {
		h.ID |= uint64(buf[4+i]) << (8 * i)
	}
	return h, buf[HandleLen:], true
}

// HandleLen is the wire size of an encoded RMAHandle.
const HandleLen = 12

// PeerStat is one peer link's transport counters, exposed by fabrics
// that maintain real per-peer connections (netfab). All values are
// cumulative except QueuedBytes, an instantaneous socket-queue gauge.
type PeerStat struct {
	Peer        int
	TxBytes     int64 // bytes written to the peer's socket
	RxBytes     int64 // bytes read from the peer's socket
	TxFrames    int64 // frames written
	RxFrames    int64 // frames read
	WritevSegs  int64 // iovec entries handed to vectored writes
	WritevCalls int64 // vectored write batches (frames per batch = TxFrames/WritevCalls)
	QueuedBytes int64 // bytes parked in the peer's send queue right now
}

// StatSource is implemented by fabrics that can report per-peer link
// counters; the backend forwards them to the OpenMetrics exporter.
type StatSource interface {
	PeerStats() []PeerStat
}
