package core

import (
	"fmt"

	"repro/internal/serde"
)

// Wire format of a Delivery header, shared by the backends so that the
// PaRSEC-model and MADNESS-model transports interoperate with the same
// graph code. The header carries routing (terminal targets and task IDs)
// and stream-control information; how the value itself travels (inline
// archive bytes, or a gather header with by-reference segments) is
// PlanSend's choice and is appended after the header. A task ID is written
// exactly as serde.EncodeAny writes its application value (wire tag, then
// the coordinates as varints); a packed key writes those bytes straight
// from its coordinates, with no registry lookup.

// headerFlowFlag marks a header whose first byte is followed by a causal
// flow id (uvarint). Bits 0-3 hold the control kind, bits 4-6 the send
// mode, leaving the top bit for the flag — so deliveries without flow
// context encode byte-identically to the pre-flow format.
const headerFlowFlag = 0x80

// EncodeHeader appends d's routing header (everything except the value).
// The first byte packs the control kind (low nibble) with the send mode
// (bits 4-6), so data-passing semantics survive the rank boundary — the
// receiver's tracker needs Mode to decide handle ownership. When the
// delivery carries causal span context (d.Flow != 0) the top bit is set
// and the flow id follows as a uvarint; untraced runs pay zero bytes.
func EncodeHeader(b *serde.Buffer, d Delivery) {
	c := uint8(d.Control) | uint8(d.Mode)<<4
	if d.Flow != 0 {
		c |= headerFlowFlag
	}
	b.PutU8(c)
	if d.Flow != 0 {
		b.PutUvarint(d.Flow)
	}
	if d.Control == CtrlSetSize || d.Control == CtrlReduce {
		b.PutVarint(int64(d.N))
	}
	b.PutUvarint(uint64(len(d.Targets)))
	for _, t := range d.Targets {
		b.PutUvarint(uint64(t.TT))
		b.PutUvarint(uint64(t.Term))
		b.PutUvarint(uint64(len(t.Keys)))
		for _, k := range t.Keys {
			encodeKey(b, k)
		}
	}
}

// DecodeHeader reads a routing header written by EncodeHeader; the buffer
// is left positioned at the value section. The header comes off the wire,
// so no count in it sizes an allocation before the bytes it claims are
// known to be there (a target takes at least 3 bytes, a key at least 1),
// and any malformation panics with a message naming the delivery header.
func DecodeHeader(b *serde.Buffer) (d Delivery) {
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("core: corrupt delivery header: %v", r))
		}
	}()
	c := b.U8()
	d.Control = ControlKind(c & 0x0f)
	d.Mode = SendMode((c >> 4) & 0x7)
	if c&headerFlowFlag != 0 {
		d.Flow = b.Uvarint()
	}
	if d.Control == CtrlSetSize || d.Control == CtrlReduce {
		d.N = int(b.Varint())
	}
	d.Targets = make([]TermTarget, b.Count(3))
	for i := range d.Targets {
		t := &d.Targets[i]
		t.TT = int(b.Uvarint())
		t.Term = int(b.Uvarint())
		t.Keys = make([]Key, b.Count(1))
		for j := range t.Keys {
			t.Keys[j] = decodeKey(b)
		}
	}
	return d
}

// HeaderWireSize returns len(EncodeHeader(d)) without encoding (cost
// models). The flow id is deliberately excluded so enabling tracing never
// perturbs the simulator's virtual message sizes.
func HeaderWireSize(d Delivery) int {
	n := 1
	if d.Control == CtrlSetSize || d.Control == CtrlReduce {
		n += serde.VarintLen(int64(d.N))
	}
	n += serde.UvarintLen(uint64(len(d.Targets)))
	for _, t := range d.Targets {
		n += serde.UvarintLen(uint64(t.TT)) + serde.UvarintLen(uint64(t.Term)) + serde.UvarintLen(uint64(len(t.Keys)))
		for _, k := range t.Keys {
			n += keyWireSize(k)
		}
	}
	return n
}
