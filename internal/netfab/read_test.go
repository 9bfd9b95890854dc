package netfab

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"
)

// TestReadFrameBoundsCountsByLength feeds readFrame frames whose counts
// claim more than their own length field: each must be refused before
// the claimed memory is allocated. A reader that trusted the counts would
// allocate tens of MB for each (up to 4 GiB for a full u32).
func TestReadFrameBoundsCountsByLength(t *testing.T) {
	frame := func(rest, dataLen, nsegs uint32, dir ...byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, rest)
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint32(b, dataLen)
		b = binary.LittleEndian.AppendUint32(b, nsegs)
		return append(b, dir...)
	}
	seg := func(typ byte, elems uint32) []byte {
		return binary.LittleEndian.AppendUint32([]byte{typ}, elems)
	}
	const big = 64 << 20
	for _, tc := range []struct {
		name  string
		bytes []byte
	}{
		{"data past the length", frame(frameHeadLen-4, big, 0)},
		{"directory past the length", frame(frameHeadLen-4, 0, big/5)},
		{"float64 segment past the length", frame(frameHeadLen-4+5, 0, 1, seg(segF64, big/8)...)},
		{"byte segment past the length", frame(frameHeadLen-4+5+16, 0, 1, seg(segB, big)...)},
		{"second segment past the length", frame(frameHeadLen-4+10+8, 0, 2, slices.Concat(seg(segF64, 1), seg(segB, big), make([]byte, 8))...)},
	} {
		br := bufio.NewReader(bytes.NewReader(tc.bytes))
		head := make([]byte, frameHeadLen)
		if _, err := br.Read(head[:4]); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := (&Endpoint{}).readFrame(&peer{}, br, head)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: allocated %d bytes before refusing (err %v)", tc.name, got, err)
		}
	}
}
