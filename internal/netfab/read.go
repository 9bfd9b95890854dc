package netfab

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/fabric"
	"repro/internal/pool"
	"repro/internal/serde"
)

// readLoop serves one peer connection: it lands each frame into pooled
// memory — framed bytes into the serde buffer pool, float64 segments into
// the float64 pool (always read into pool-allocated, 8-byte-aligned
// float64 memory through its byte view; received bytes are never
// reinterpreted in place) — and pushes the packet onto the shared inbox.
// The loop exits on the peer's half-close (clean EOF at a frame boundary).
func (e *Endpoint) readLoop(pr *peer) {
	defer e.readWG.Done()
	br := bufio.NewReaderSize(pr.conn, 64<<10)
	var head [frameHeadLen]byte
	for {
		if _, err := io.ReadFull(br, head[:4]); err != nil {
			// EOF here is the peer's graceful half-close; anything else
			// mid-run is a transport failure.
			if err != io.EOF && !e.closed.Load() {
				panic(fmt.Sprintf("netfab: read from rank %d: %v", pr.rank, err))
			}
			return
		}
		if err := e.readFrame(pr, br, head[:]); err != nil {
			if !e.closed.Load() {
				panic(fmt.Sprintf("netfab: read from rank %d: %v", pr.rank, err))
			}
			return
		}
	}
}

// readFrame reads the remainder of one frame (head[:4] already holds the
// length field) and dispatches it. Every count in the frame is checked
// against the length field before anything is allocated for it, so a
// frame costs no more memory than it says it carries.
func (e *Endpoint) readFrame(pr *peer, br *bufio.Reader, head []byte) error {
	if _, err := io.ReadFull(br, head[4:frameHeadLen]); err != nil {
		return err
	}
	rest := int(binary.LittleEndian.Uint32(head[:4]))
	kind := head[4]
	dataLen := int(binary.LittleEndian.Uint32(head[5:9]))
	nsegs := int(binary.LittleEndian.Uint32(head[9:13]))
	// left counts the payload bytes the length field still allows.
	left := rest - (frameHeadLen - 4) - dataLen - 5*nsegs
	if left < 0 {
		return fmt.Errorf("frame of %d bytes cannot hold %d data bytes and %d segments", rest, dataLen, nsegs)
	}

	var data []byte
	if dataLen > 0 {
		data = pool.Bytes(dataLen)[:dataLen]
		if _, err := io.ReadFull(br, data); err != nil {
			return err
		}
	}
	var segs []serde.Segment
	if nsegs > 0 {
		dir := pool.Bytes(5 * nsegs)[:5*nsegs]
		if _, err := io.ReadFull(br, dir); err != nil {
			return err
		}
		segs = make([]serde.Segment, nsegs)
		for i := range segs {
			typ := dir[5*i]
			elems := int(binary.LittleEndian.Uint32(dir[5*i+1:]))
			size := elems
			if typ == segF64 {
				size *= 8
			}
			if left -= size; left < 0 {
				return fmt.Errorf("frame of %d bytes cannot hold segment %d of %d bytes", rest, i, size)
			}
			switch typ {
			case segF64:
				f := pool.Float64s(elems)
				if _, err := io.ReadFull(br, f64Bytes(f)); err != nil {
					return err
				}
				segs[i].F64 = f
			case segB:
				b := pool.Bytes(elems)[:elems]
				if _, err := io.ReadFull(br, b); err != nil {
					return err
				}
				segs[i].B = b
			default:
				return fmt.Errorf("bad segment type %d", typ)
			}
		}
		pool.PutBytes(dir)
	}

	// Counted before the frame is handed on, so whoever receives the
	// packet already finds it in the link counters.
	pr.rxBytes.Add(4 + int64(binary.LittleEndian.Uint32(head[:4])))
	pr.rxFrames.Add(1)
	if kind >= fabric.KindReserved {
		// The one reserved kind, the hello, is consumed before readLoop
		// starts; a late one, or any other, is a protocol error.
		return fmt.Errorf("unexpected reserved frame kind %#x", kind)
	}
	e.inbox.Push(fabric.Packet{Src: pr.rank, Dst: e.rank, Kind: kind, Data: data, Segs: segs})
	return nil
}
