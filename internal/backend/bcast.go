package backend

import (
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serde"
)

// Broadcast implements core.Executor. Multi-rank emissions travel along a
// binomial tree over the destination ranks; payloads larger than the
// configured chunk size are pipelined — streamed as fixed-size chunks so a
// relay forwards chunk k down the tree while chunk k+1 is still crossing
// its own inbound link. Small payloads take the single-frame
// store-and-forward path (one kBcast packet per tree edge).
func (p *Proc) Broadcast(dests map[int]core.Delivery) {
	if !p.rt.opts.TreeBroadcast || len(dests) < 2 {
		for dst, d := range dests {
			p.Deliver(dst, d)
		}
		return
	}
	participants := make([]int, 0, len(dests))
	var value any
	for dst, d := range dests {
		participants = append(participants, dst)
		value = d.Value
	}
	order := collective.Order(p.rank, participants)
	kids := collective.Fanout(order, p.rank)

	// Serialize the value exactly once, regardless of fan-out.
	vb := serde.GetBuffer(1024)
	serde.EncodeAny(vb, value)
	p.tr.ArchiveTransfers.Add(1)

	chunk := p.rt.opts.BcastChunk
	if chunk <= 0 || vb.Len() <= chunk {
		// Single frame: plan + inline value, forwarded whole at each hop.
		b := serde.GetBuffer(256 + vb.Len())
		p.encodeBcastPlan(b, order, dests)
		b.PutRaw(vb.Bytes())
		vb.Release()
		// Detach, not Release: the same array is shared by every child
		// send and forwarded down the tree, so it is never recycled.
		data := b.Detach()
		p.observeBcast(order, len(data))
		for _, child := range kids {
			p.send(child, kBcast, data, nil)
		}
		return
	}

	// Pipelined path: a header packet carrying the plan and payload
	// geometry, then the payload as a stream of chunk packets. Per-link
	// FIFO delivery guarantees children see the header first.
	total := vb.Len()
	nchunks := (total + chunk - 1) / chunk
	bid := p.bcastSeq.Add(1)
	hb := serde.GetBuffer(256)
	hb.PutU64(bid)
	p.encodeBcastPlan(hb, order, dests)
	hb.PutUvarint(uint64(total))
	hb.PutUvarint(uint64(chunk))
	hdr := hb.Detach()
	p.observeBcast(order, total)
	for _, child := range kids {
		p.send(child, kBcastHdr, hdr, nil)
	}
	v := vb.Bytes()
	for i := 0; i < nchunks; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		cb := serde.GetBuffer(32 + hi - lo)
		cb.PutU32(uint32(p.rank))
		cb.PutU64(bid)
		cb.PutUvarint(uint64(i))
		cb.PutBytes(v[lo:hi])
		cd := cb.Detach()
		for _, child := range kids {
			p.send(child, kBcastChunk, cd, nil)
		}
	}
	vb.Release()
}

// observeBcast records the shape of a tree broadcast this rank planned: an
// EvBroadcast event carrying the participant count (Bytes) and tree depth
// (Dur), plus the fan-out and payload-size histograms.
func (p *Proc) observeBcast(order []int, payloadBytes int) {
	if p.rec == nil {
		return
	}
	p.rec.Record(obs.Event{Kind: obs.EvBroadcast, Worker: -1, TT: -1,
		Bytes: int64(len(order)), Dur: int64(collective.Depth(len(order))), Name: "tree"})
	p.bcastFanout.Observe(int64(len(order)))
	p.msgBytes.Observe(int64(payloadBytes))
}

// encodeBcastPlan writes the tree plan: root, traversal order, and the
// per-destination delivery headers.
func (p *Proc) encodeBcastPlan(b *serde.Buffer, order []int, dests map[int]core.Delivery) {
	b.PutU32(uint32(p.rank))
	b.PutUvarint(uint64(len(order)))
	for _, r := range order {
		b.PutVarint(int64(r))
	}
	b.PutUvarint(uint64(len(dests)))
	for dst, d := range dests {
		b.PutVarint(int64(dst))
		core.EncodeHeader(b, d)
	}
}

// decodeBcastPlan reads what encodeBcastPlan wrote, returning the traversal
// order and this rank's own delivery header (if it is a destination).
func (p *Proc) decodeBcastPlan(b *serde.Buffer) (root int, order []int, mine core.Delivery, hasMine bool) {
	root = int(b.U32())
	n := int(b.Uvarint())
	order = make([]int, n)
	for i := range order {
		order[i] = int(b.Varint())
	}
	ne := int(b.Uvarint())
	for i := 0; i < ne; i++ {
		r := int(b.Varint())
		d := core.DecodeHeader(b)
		if r == p.rank {
			mine, hasMine = d, true
		}
	}
	return
}

// handleBcast processes a single-frame tree broadcast: forward to tree
// children first (latency overlap), then deliver locally.
func (p *Proc) handleBcast(data []byte) {
	b := serde.FromBytes(data)
	_, order, mine, hasMine := p.decodeBcastPlan(b)
	value := serde.DecodeAny(b)
	for _, child := range collective.Fanout(order, p.rank) {
		p.tr.BcastsForwarded.Add(1)
		if p.rec != nil {
			p.rec.Record(obs.Event{Kind: obs.EvBcastForward, Worker: -1, TT: -1,
				Bytes: int64(len(data))})
		}
		p.send(child, kBcast, data, nil)
	}
	if hasMine {
		mine.Value = value
		// Each rank decodes its own object: hand it to the runtime outright.
		mine.Exclusive = true
		p.graph.Inject(mine)
	}
}

// bcastKey names one in-flight pipelined broadcast: the rooting rank plus
// its per-root sequence number.
type bcastKey struct {
	root int
	bid  uint64
}

// bcastState is one rank's reassembly of a pipelined broadcast. All fields
// are owned by the comm thread.
type bcastState struct {
	hdr     bool  // header seen; geometry and kids valid
	kids    []int // this rank's tree children
	mine    core.Delivery
	hasMine bool
	buf     []byte // payload reassembly target
	chunk   int
	nchunks int
	got     int
	pending [][]byte // chunk packets that raced ahead of the header
}

func (p *Proc) bcastState(k bcastKey) *bcastState {
	if p.bcasts == nil {
		p.bcasts = map[bcastKey]*bcastState{}
	}
	st := p.bcasts[k]
	if st == nil {
		st = &bcastState{}
		p.bcasts[k] = st
	}
	return st
}

// handleBcastHdr processes a pipelined-broadcast header: forward it to tree
// children immediately (so the subtree can start receiving chunks with
// minimal delay), then set up reassembly.
func (p *Proc) handleBcastHdr(data []byte) {
	b := serde.FromBytes(data)
	bid := b.U64()
	root, order, mine, hasMine := p.decodeBcastPlan(b)
	total := int(b.Uvarint())
	chunk := int(b.Uvarint())
	kids := collective.Fanout(order, p.rank)
	for _, child := range kids {
		p.tr.BcastsForwarded.Add(1)
		if p.rec != nil {
			p.rec.Record(obs.Event{Kind: obs.EvBcastForward, Worker: -1, TT: -1,
				Bytes: int64(total)})
		}
		p.send(child, kBcastHdr, data, nil)
	}
	st := p.bcastState(bcastKey{root, bid})
	st.hdr = true
	st.kids = kids
	st.mine, st.hasMine = mine, hasMine
	st.buf = make([]byte, total)
	st.chunk = chunk
	st.nchunks = (total + chunk - 1) / chunk
	// Per-link FIFO makes chunk-before-header impossible from the direct
	// parent, but replay any chunks that arrived early anyway (defensive).
	pend := st.pending
	st.pending = nil
	for _, cd := range pend {
		p.handleBcastChunk(cd)
	}
}

// handleBcastChunk relays one payload chunk to the tree children before
// copying it into the local reassembly buffer; the final chunk completes
// the value and injects this rank's delivery.
func (p *Proc) handleBcastChunk(data []byte) {
	b := serde.FromBytes(data)
	root := int(b.U32())
	bid := b.U64()
	idx := int(b.Uvarint())
	n := int(b.Uvarint())
	piece := b.RawOut(n)
	st := p.bcastState(bcastKey{root, bid})
	if !st.hdr {
		st.pending = append(st.pending, data)
		return
	}
	// Forward first: the children's links start transmitting this chunk
	// while we finish the local copy (and while the next chunk is still
	// inbound) — that overlap is the pipeline.
	for _, child := range st.kids {
		p.send(child, kBcastChunk, data, nil)
	}
	copy(st.buf[idx*st.chunk:], piece)
	st.got++
	if st.got < st.nchunks {
		return
	}
	delete(p.bcasts, bcastKey{root, bid})
	value := serde.DecodeAny(serde.FromBytes(st.buf))
	if st.hasMine {
		st.mine.Value = value
		// Freshly decoded from the reassembled payload: runtime-owned.
		st.mine.Exclusive = true
		p.graph.Inject(st.mine)
	}
}
