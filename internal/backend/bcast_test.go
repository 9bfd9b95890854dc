package backend

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/serde"
)

// TestBcastChunkZeroAllocatesWhatArrived: chunk 0 of a tree broadcast
// claims the payload's total length, and a receiver that sized its
// reassembly buffer from that claim would allocate whatever a hostile or
// corrupt packet names. A claim of 2 GiB with a one-byte piece must cost
// about one byte, whether the packet is refused (two chunks of 1 GiB: the
// piece is short of its chunk) or accepted (one-byte chunks).
func TestBcastChunkZeroAllocatesWhatArrived(t *testing.T) {
	o := PaRSEC()
	o.WorkersPerRank = 1
	rt := New(1, o)
	defer rt.Shutdown()
	p := rt.Proc(0)

	// A plan rooted at rank 0, so there is no child to relay to, with no
	// recipients.
	chunk0 := func(bid, total, chunk uint64) []byte {
		b := serde.NewBuffer(64)
		b.PutU32(0)
		b.PutU64(bid)
		b.PutUvarint(0)
		b.PutUvarint(1)
		b.PutVarint(0)
		b.PutUvarint(0)
		b.PutUvarint(total)
		b.PutUvarint(chunk)
		b.PutBytes([]byte{1})
		return b.Bytes()
	}
	const total = 1 << 31
	for _, c := range []struct {
		name   string
		chunk  uint64
		refuse bool
	}{
		{"two chunks of 1 GiB", total / 2, true},
		{"one-byte chunks", 1, false},
	} {
		pkt := chunk0(uint64(c.chunk), total, c.chunk)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			p.handleBcastChunk(pkt)
			return "<nil>"
		}()
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: chunk 0 claiming %d bytes allocated %d bytes", c.name, total, grew)
		}
		if refused := strings.Contains(msg, "malformed kBcastChunk"); refused != c.refuse {
			t.Errorf("%s: recovered %s, want refused = %v", c.name, msg, c.refuse)
		}
	}
}
