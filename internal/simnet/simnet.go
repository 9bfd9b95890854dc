// Package simnet is the in-process fabric: every rank of a cluster lives
// in the calling process, and a send is an immediate, in-order push of
// the packet, by reference, onto the destination rank's inbox. It models
// no latency and no bandwidth — backend/sim charges those in virtual time
// for the paper's figures — and only carries bytes. What it keeps is what
// the engine's behavior depends on: per-link FIFO order, framed payloads
// that really cross as bytes (so serialization runs as it would over a
// wire), gathered payloads (Packet.Segs) that cross by reference (the
// in-process analog of an iovec write), and the termination detector's
// control traffic.
package simnet

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/serde"
)

// Endpoint is one rank's attachment to the in-process fabric. It
// implements fabric.Endpoint.
type Endpoint struct {
	rank  int
	eps   []*Endpoint // every rank's endpoint, shared
	inbox *fabric.Queue[fabric.Packet]

	// inflight, when non-nil, gauges packets sent but not yet received
	// across the whole fabric (the obs.GaugeInflightMsgs metric).
	inflight *obs.Gauge
}

var _ fabric.Endpoint = (*Endpoint)(nil)

// New connects ranks endpoints pairwise. inflight, when non-nil (normally
// Session.Global().Gauge(obs.GaugeInflightMsgs)), counts the packets sent
// but not yet received. Close every returned endpoint when done.
func New(ranks int, inflight *obs.Gauge) []*Endpoint {
	if ranks < 1 {
		panic("simnet: need at least one rank")
	}
	eps := make([]*Endpoint, ranks)
	for r := range eps {
		eps[r] = &Endpoint{rank: r, eps: eps, inbox: fabric.NewQueue[fabric.Packet](), inflight: inflight}
	}
	return eps
}

// Rank returns this endpoint's rank.
func (e *Endpoint) Rank() int { return e.rank }

// Size returns the number of ranks on the fabric.
func (e *Endpoint) Size() int { return len(e.eps) }

// Send transmits data to dst. Data is owned by the fabric after the call.
func (e *Endpoint) Send(dst int, kind uint8, data []byte) {
	e.SendSegs(dst, kind, data, nil)
}

// SendSegs transmits framed data plus by-reference payload segments (the
// zero-copy gather path). Data and the segment list are owned by the
// fabric after the call; segment memory is owned by whoever decodes the
// packet on the receive side. A send to a closed endpoint is dropped
// without allocating (its rank has already quiesced).
func (e *Endpoint) SendSegs(dst int, kind uint8, data []byte, segs []serde.Segment) {
	if dst < 0 || dst >= len(e.eps) {
		panic(fmt.Sprintf("simnet: send to invalid rank %d", dst))
	}
	if e.inflight != nil {
		e.inflight.Add(1)
	}
	if !e.eps[dst].inbox.Push(fabric.Packet{Src: e.rank, Dst: dst, Kind: kind, Data: data, Segs: segs}) && e.inflight != nil {
		e.inflight.Add(-1)
	}
}

// Recv blocks for the next packet; ok is false once the endpoint is
// closed and its inbox drained.
func (e *Endpoint) Recv() (fabric.Packet, bool) {
	p, ok := e.inbox.Pop()
	if ok && e.inflight != nil {
		e.inflight.Add(-1)
	}
	return p, ok
}

// Close closes this rank's inbox: blocked receivers wake, what was
// already delivered can still be received, and later sends to this rank
// are dropped. Idempotent.
func (e *Endpoint) Close() error {
	e.inbox.Close()
	return nil
}
