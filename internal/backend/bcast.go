package backend

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serde"
)

// Broadcast implements core.Executor by executing core.PlanBcast: without
// a tree, one Deliver per destination in ascending rank order; with one,
// the value is serialized once and streamed down the binomial tree as
// Chunks packets per edge, so a relay forwards chunk k while chunk k+1 is
// still crossing its own inbound link. Chunk 0 carries the plan and the
// payload geometry; a value that fits one chunk (or BcastChunk < 0) is
// exactly one packet per tree edge.
func (p *Proc) Broadcast(dests map[int]core.Delivery) {
	pl := core.PlanBcast(p.rank, dests, p.rt.opts.SendCaps)
	if pl.Order == nil {
		for _, dst := range pl.Ranks {
			p.Deliver(dst, dests[dst])
		}
		return
	}
	// Serialize the value exactly once, regardless of fan-out.
	vb := serde.GetBuffer(1024)
	pl.Value.Codec.EncodeAny(vb, dests[pl.Ranks[0]].Value)
	p.tr.ArchiveTransfers.Add(1)
	v := vb.Bytes()
	// The geometry is cut from the encoded bytes (WireSize may estimate)
	// by the same rule that sized pl.Chunks.
	total := len(v)
	n, chunk := p.rt.opts.Chunks(total)
	bid := p.bcastSeq.Add(1)
	kids := collective.Fanout(pl.Order, p.rank)
	p.observeBcast(pl.Order, total)
	for i := 0; i < n; i++ {
		piece := v[i*chunk : min((i+1)*chunk, total)]
		b := serde.GetBuffer(256 + len(piece))
		b.PutU32(uint32(p.rank))
		b.PutU64(bid)
		b.PutUvarint(uint64(i))
		if i == 0 {
			b.PutUvarint(uint64(len(pl.Order)))
			for _, r := range pl.Order {
				b.PutVarint(int64(r))
			}
			b.PutUvarint(uint64(len(pl.Ranks)))
			for _, dst := range pl.Ranks {
				b.PutVarint(int64(dst))
				core.EncodeHeader(b, dests[dst])
			}
			b.PutUvarint(uint64(total))
			b.PutUvarint(uint64(chunk))
		}
		b.PutBytes(piece)
		// Detach, not Release: the same array is shared by every child
		// send and forwarded down the tree, so it is never recycled.
		data := b.Detach()
		for _, child := range kids {
			p.send(child, kBcastChunk, data, nil, false)
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

// bcastKey names one in-flight multi-chunk broadcast: the rooting rank plus
// its per-root sequence number.
type bcastKey struct {
	root int
	bid  uint64
}

// bcastState is one rank's view of a broadcast between its first and last
// chunk. Its chunks cross one link in order, one handler call at a time.
type bcastState struct {
	kids    []int // this rank's tree children
	mine    core.Delivery
	buf     []byte // the pieces so far; aliases the packet when nchunks == 1
	total   int
	chunk   int
	nchunks int
	got     int
}

// handleBcastChunk relays one chunk to the tree children before keeping its
// piece — the children's links start transmitting while this rank finishes
// the local copy and while the next chunk is still inbound; that overlap is
// the pipeline. Chunk 0 (per-link FIFO: always first) sets the state up
// from the plan it carries; the last chunk completes the value and injects
// this rank's delivery (every non-root participant is a destination).
// The pieces arrive in order, so the value is reassembled by appending
// them: what it allocates is what has arrived, never the total chunk 0
// claims.
func (p *Proc) handleBcastChunk(data []byte) {
	key, idx, st, piece := p.readBcastChunk(data)
	if idx == 0 {
		p.tr.BcastsForwarded.Add(int64(len(st.kids)))
		if p.rec != nil {
			for range st.kids {
				p.rec.Record(obs.Event{Kind: obs.EvBcastForward, Worker: -1, TT: -1, Bytes: int64(st.total)})
			}
		}
	}
	for _, child := range st.kids {
		p.send(child, kBcastChunk, data, nil, true)
	}
	if st.nchunks == 1 {
		st.buf = piece
	} else {
		st.buf = append(st.buf, piece...)
	}
	if st.got++; st.got < st.nchunks {
		return
	}
	if st.nchunks > 1 {
		p.bcastMu.Lock()
		delete(p.bcasts, key)
		p.bcastMu.Unlock()
	}
	st.mine.Value = serde.DecodeAny(serde.FromBytes(st.buf))
	// Each rank decodes its own object: hand it to the runtime outright.
	st.mine.Exclusive = true
	p.graph.Inject(st.mine)
}

// readBcastChunk decodes one kBcastChunk packet: the broadcast's key, the
// chunk index and piece, and its state — new from the plan and geometry
// chunk 0 carries, or the one chunk 0 left behind. Every count, index and
// piece length is the sender's claim and is checked before it sizes an
// allocation or a copy; whichever check refuses one, the panic names the
// packet and the broadcast. The claimed total sizes nothing: the chunks of
// a broadcast cross one link after another in order, so a chunk must be
// the next one, every piece but the last must fill a chunk, and the last
// must end the payload at total.
func (p *Proc) readBcastChunk(data []byte) (key bcastKey, idx int, st *bcastState, piece []byte) {
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("backend: malformed kBcastChunk packet (root %d, broadcast %d): %v", key.root, key.bid, r))
		}
	}()
	b := serde.FromBytes(data)
	key = bcastKey{root: int(b.U32()), bid: b.U64()}
	idx = int(b.Uvarint())
	if idx == 0 {
		st = &bcastState{}
		order := make([]int, b.Count(1))
		for i := range order {
			order[i] = int(b.Varint())
		}
		for n := b.Count(1); n > 0; n-- {
			r, d := int(b.Varint()), core.DecodeHeader(b)
			if r == p.rank {
				st.mine = d
			}
		}
		st.total, st.chunk = int(b.Uvarint()), int(b.Uvarint())
		if st.total < 1 || st.chunk < 1 {
			panic(fmt.Sprintf("payload of %d bytes in chunks of %d", st.total, st.chunk))
		}
		st.nchunks = st.total/st.chunk + min(st.total%st.chunk, 1)
		st.kids = collective.Fanout(order, p.rank)
		if st.nchunks > 1 {
			p.bcastMu.Lock()
			if p.bcasts == nil {
				p.bcasts = map[bcastKey]*bcastState{}
			}
			p.bcasts[key] = st
			p.bcastMu.Unlock()
		}
	} else if st = p.bcast(key); st == nil {
		panic(fmt.Sprintf("chunk %d arrived before chunk 0", idx))
	} else if idx != st.got {
		panic(fmt.Sprintf("chunk %d arrived where chunk %d of %d was due", idx, st.got, st.nchunks))
	}
	piece = b.RawOut(b.Count(1))
	if last := idx == st.nchunks-1; len(piece) > st.chunk || !last && len(piece) < st.chunk {
		panic(fmt.Sprintf("chunk %d of %d holds %d bytes in chunks of %d", idx, st.nchunks, len(piece), st.chunk))
	} else if last && idx*st.chunk+len(piece) != st.total {
		panic(fmt.Sprintf("chunk %d ends the payload at %d bytes, not %d", idx, idx*st.chunk+len(piece), st.total))
	}
	return key, idx, st, piece
}

// bcast returns the reassembly state chunk 0 of key left behind, if any.
func (p *Proc) bcast(key bcastKey) *bcastState {
	p.bcastMu.Lock()
	st := p.bcasts[key]
	p.bcastMu.Unlock()
	return st
}
