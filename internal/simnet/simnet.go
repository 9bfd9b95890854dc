// Package simnet is the in-process fabric: every rank of a cluster lives
// in the calling process, and a send calls the destination rank's receive
// handler, by reference, on the sending goroutine. It models no latency
// and no bandwidth — backend/sim charges those in virtual time for the
// paper's figures — and only carries bytes. What it keeps is what the
// engine's behavior depends on: sends made one after the other are
// handled in that order, framed payloads really cross as bytes (so
// serialization runs as it would over a wire), gathered payloads
// (Packet.Segs) cross by reference (the in-process analog of an iovec
// write), and the termination detector's control traffic is carried like
// any other packet. A packet is never in flight outside the send call.
package simnet

import (
	"fmt"
	"sync/atomic"

	"repro/internal/fabric"
	"repro/internal/serde"
)

// Endpoint is one rank's attachment to the in-process fabric. It
// implements fabric.Endpoint.
type Endpoint struct {
	rank    int
	eps     []*Endpoint // every rank's endpoint, shared
	h       func(fabric.Packet)
	started chan struct{} // closed by Start, once h is set
	closed  atomic.Bool
}

var _ fabric.Endpoint = (*Endpoint)(nil)

// New connects ranks endpoints pairwise; a send to one waits until it has
// Started. Close every returned endpoint when done.
func New(ranks int) []*Endpoint {
	if ranks < 1 {
		panic("simnet: need at least one rank")
	}
	eps := make([]*Endpoint, ranks)
	for r := range eps {
		eps[r] = &Endpoint{rank: r, eps: eps, started: make(chan struct{})}
	}
	return eps
}

// Rank returns this endpoint's rank.
func (e *Endpoint) Rank() int { return e.rank }

// Size returns the number of ranks on the fabric.
func (e *Endpoint) Size() int { return len(e.eps) }

// Start installs the rank's receive handler. Call it once.
func (e *Endpoint) Start(h func(fabric.Packet)) {
	e.h = h
	close(e.started)
}

// SendSegs hands framed data plus by-reference payload segments (the
// zero-copy gather path) to dst's handler and returns when the handler
// does; it first waits for dst to Start. Data and the segment list are
// owned by the fabric after the call; segment memory is owned by whoever
// decodes the packet on the receive side. A send to a closed endpoint is
// dropped without allocating (its rank has already quiesced).
func (e *Endpoint) SendSegs(dst int, kind uint8, data []byte, segs []serde.Segment) {
	if dst < 0 || dst >= len(e.eps) {
		panic(fmt.Sprintf("simnet: send to invalid rank %d", dst))
	}
	d := e.eps[dst]
	if d.closed.Load() {
		return
	}
	<-d.started
	d.h(fabric.Packet{Src: e.rank, Dst: dst, Kind: kind, Data: data, Segs: segs})
}

// Relay is SendSegs: nothing in-process parks.
func (e *Endpoint) Relay(dst int, kind uint8, data []byte, segs []serde.Segment) {
	e.SendSegs(dst, kind, data, segs)
}

// Close drops every later send to this rank. Idempotent.
func (e *Endpoint) Close() error {
	e.closed.Store(true)
	return nil
}
