// Package termdet implements distributed termination detection for the
// fence operation. A TTG program quiesces when no task is running or
// queued on any rank and no data message is in flight. We use a
// coordinator-driven variant of Mattern's four-counter scheme: rank 0
// repeatedly collects per-rank (sent, received, active) counters and
// declares termination when two consecutive waves observe identical
// counter vectors with Σsent == Σreceived and Σactive == 0. Stability
// across two waves rules out in-flight messages that a single inconsistent
// snapshot could miss. A fence additionally begins with an entry barrier so
// that work injected by rank mains before the fence is always observed.
package termdet

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"
)

// Op codes for control packets.
const (
	opEnter uint8 = iota + 1
	opProbe
	opReply
	opTerm
)

// Detector tracks one rank's activity and drives/answers the detection
// protocol. The owning backend must route control packets to
// HandleControl and apply the counting discipline documented on New and
// the activity methods.
type Detector struct {
	rank, size int
	send       func(dst int, data []byte)

	sent, received *atomic.Int64 // the rank's message counts, owned by the backend
	active         atomic.Int64

	mu       sync.Mutex
	cond     *sync.Cond
	entered  map[uint32]int
	replies  map[uint32]map[int]counters // wave -> rank -> counters
	termGen  uint32
	fenceGen uint32
	waveSeq  uint32 // coordinator-only: distinct wave ids across fences
}

type counters struct{ s, r, a int64 }

// New builds a detector for rank of size ranks. send must transmit a
// control packet to another rank (it is never called with dst == rank).
// sent and received are the rank's data-message counts, which the detector
// only reads: the backend adds one to sent before a message leaves, while
// the sending activity is still counted active, and one to received after
// Activate for any work the message triggers, so no gap is observable.
func New(rank, size int, sent, received *atomic.Int64, send func(dst int, data []byte)) *Detector {
	d := &Detector{
		rank: rank, size: size, send: send,
		sent: sent, received: received,
		entered: map[uint32]int{},
		replies: map[uint32]map[int]counters{},
	}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// Activate counts a new unit of pending work (queued task, in-progress
// delivery). Always call it before the enabling event is acknowledged.
func (d *Detector) Activate() { d.active.Add(1) }

// Deactivate retires a unit of work.
func (d *Detector) Deactivate() { d.active.Add(-1) }

// Active returns the current local activity level (for tests/diagnostics).
func (d *Detector) Active() int64 { return d.active.Load() }

func (d *Detector) snapshot() counters {
	return counters{s: d.sent.Load(), r: d.received.Load(), a: d.active.Load()}
}

// packet layout: op(1) gen(4) wave(4) s(8) r(8) a(8) sender(4)
func pack(op uint8, gen, wave uint32, c counters, sender int) []byte {
	b := make([]byte, 0, 37)
	b = append(b, op)
	b = binary.LittleEndian.AppendUint32(b, gen)
	b = binary.LittleEndian.AppendUint32(b, wave)
	b = binary.LittleEndian.AppendUint64(b, uint64(c.s))
	b = binary.LittleEndian.AppendUint64(b, uint64(c.r))
	b = binary.LittleEndian.AppendUint64(b, uint64(c.a))
	b = binary.LittleEndian.AppendUint32(b, uint32(sender))
	return b
}

func unpack(data []byte) (op uint8, gen, wave uint32, c counters, sender int) {
	op = data[0]
	gen = binary.LittleEndian.Uint32(data[1:])
	wave = binary.LittleEndian.Uint32(data[5:])
	c.s = int64(binary.LittleEndian.Uint64(data[9:]))
	c.r = int64(binary.LittleEndian.Uint64(data[17:]))
	c.a = int64(binary.LittleEndian.Uint64(data[25:]))
	sender = int(binary.LittleEndian.Uint32(data[33:]))
	return
}

// HandleControl processes one control packet; the backend's communication
// thread calls it for packets of the termination-detection kind.
func (d *Detector) HandleControl(data []byte) {
	op, gen, wave, c, sender := unpack(data)
	switch op {
	case opEnter:
		d.mu.Lock()
		d.entered[gen]++
		d.mu.Unlock()
		d.cond.Broadcast()
	case opProbe:
		d.send(sender, pack(opReply, gen, wave, d.snapshot(), d.rank))
	case opReply:
		d.mu.Lock()
		m := d.replies[wave]
		if m == nil {
			m = map[int]counters{}
			d.replies[wave] = m
		}
		m[sender] = c
		d.mu.Unlock()
		d.cond.Broadcast()
	case opTerm:
		d.mu.Lock()
		if gen > d.termGen {
			d.termGen = gen
		}
		d.mu.Unlock()
		d.cond.Broadcast()
	}
}

// Fence blocks until global quiescence. It is collective: every rank must
// call it once per fence generation.
func (d *Detector) Fence() {
	gen := atomic.AddUint32(&d.fenceGen, 1)
	if d.size == 1 {
		// Single rank: just wait for local activity to drain.
		for d.active.Load() != 0 {
			time.Sleep(10 * time.Microsecond)
		}
		return
	}
	if d.rank != 0 {
		d.send(0, pack(opEnter, gen, 0, counters{}, d.rank))
		d.mu.Lock()
		for d.termGen < gen {
			d.cond.Wait()
		}
		d.mu.Unlock()
		return
	}
	d.coordinate(gen)
}

func (d *Detector) coordinate(gen uint32) {
	// Entry barrier: all other ranks must have reached this fence.
	d.mu.Lock()
	for d.entered[gen] < d.size-1 {
		d.cond.Wait()
	}
	delete(d.entered, gen)
	d.mu.Unlock()

	var prev map[int]counters
	backoff := 20 * time.Microsecond
	for {
		wave := atomic.AddUint32(&d.waveSeq, 1)
		for r := 1; r < d.size; r++ {
			d.send(r, pack(opProbe, gen, wave, counters{}, d.rank))
		}
		d.mu.Lock()
		for len(d.replies[wave]) < d.size-1 {
			d.cond.Wait()
		}
		cur := d.replies[wave]
		delete(d.replies, wave)
		d.mu.Unlock()
		cur[0] = d.snapshot()

		if stable(prev, cur) {
			break
		}
		prev = cur
		time.Sleep(backoff)
		if backoff < 2*time.Millisecond {
			backoff *= 2
		}
	}
	for r := 1; r < d.size; r++ {
		d.send(r, pack(opTerm, gen, 0, counters{}, d.rank))
	}
}

// stable reports whether two consecutive waves prove quiescence.
func stable(prev, cur map[int]counters) bool {
	if prev == nil || len(prev) != len(cur) {
		return false
	}
	var sumS, sumR, sumA int64
	for r, c := range cur {
		p, ok := prev[r]
		if !ok || p != c {
			return false
		}
		sumS += c.s
		sumR += c.r
		sumA += c.a
	}
	return sumA == 0 && sumS == sumR
}
