// Package fabric defines the narrow transport contract the runtime
// backends speak: point-to-point framed sends with optional by-reference
// payload segments (the iovec of the zero-copy wire path), and a receive
// handler the fabric calls on whichever goroutine lands a packet — there
// is no inbox and no receive thread. Nothing here fetches remote memory: a
// payload crosses by being pushed. Two fabrics implement it —
// internal/simnet, which carries the bytes between ranks living in one
// process and models nothing, and internal/netfab, the real
// TCP/Unix-socket transport where ranks are separate OS processes — so the
// engine in internal/backend is written once against this interface and
// the choice of wire is a configuration value, exactly as the paper's TTG
// runs unchanged over PaRSEC's and MADNESS's transports. Network cost is
// modelled only in virtual time, by internal/backend/sim.
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
// frames (netfab's bootstrap hello); application kinds must stay below
// it.
const KindReserved uint8 = 0xF0

// Endpoint is one rank's attachment to a fabric. Implementations must be
// safe for concurrent use: workers send while handlers run.
type Endpoint interface {
	// Rank returns this endpoint's rank; Size the number of ranks.
	Rank() int
	Size() int

	// Start installs h, the rank's receive handler; call it once. The
	// fabric calls h on the goroutine that lands each packet (a network
	// fabric's per-peer reader, an in-process fabric's sender), so calls
	// may overlap, but two packets sent one after the other reach h in
	// that order. A send to a rank that has not Started waits for it.
	Start(h func(Packet))

	// SendSegs transmits framed data plus by-reference payload segments
	// (the zero-copy gather path; segs may be nil). The data slice is
	// owned by the fabric after the call for reading, but the fabric must
	// not recycle it: tree broadcasts hand one array to several sends.
	// Segment memory is owned by the fabric outright — an in-process
	// fabric hands it to the receiver's handler, a network fabric returns
	// it to its pool once the bytes are on the wire. A network fabric may
	// park the caller while dst's link holds more than its in-flight
	// bound: a value's first send, from a task body or a rank main, waits
	// there.
	SendSegs(dst int, kind uint8, data []byte, segs []serde.Segment)

	// Relay is SendSegs for traffic that forwards what this rank received
	// (termination-detection control, broadcast chunks, reduce-tree
	// partials); it never parks, so two relaying handlers cannot wait on
	// each other's credit.
	Relay(dst int, kind uint8, data []byte, segs []serde.Segment)

	// Close shuts the endpoint down once its rank has quiesced: whatever
	// the fabric still holds for this rank reaches the handler, no handler
	// call is running when Close returns, and a late send is dropped.
	// Idempotent.
	Close() error
}

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
