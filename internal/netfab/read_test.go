package netfab

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/pool"
	"repro/internal/serde"
)

// TestReadFrameBoundsCountsByLength feeds readFrame frames whose counts
// claim more than their own length field: each must be refused before
// the claimed memory is allocated. A reader that trusted the counts would
// allocate tens of MB for each (up to 4 GiB for a full u32). A frame
// whose length claims more than its counts use is refused too: the
// unclaimed bytes would otherwise be read as the next frame's header.
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
		{"length past the data", frame(frameHeadLen-4+2+8, 2, 0, make([]byte, 2+8)...)},
	} {
		br := bufio.NewReader(bytes.NewReader(tc.bytes))
		head := make([]byte, frameHeadLen)
		if _, err := br.Read(head[:4]); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := (&Endpoint{inbox: fabric.NewQueue[fabric.Packet]()}).readFrame(&peer{}, br, head)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: allocated %d bytes before refusing (err %v)", tc.name, got, err)
		}
	}
}

// TestFrameLengthMaximum: a header whose length is one byte over
// maxFrameLen is refused before anything is allocated for it, although
// its counts fit that length (without the maximum a header could claim
// and get up to 4 GiB); the sender refuses to build such a frame, naming
// its size; and the largest frame the repository sends,
// BenchmarkLoopbackBandwidth's 4 MiB segment, still round-trips.
func TestFrameLengthMaximum(t *testing.T) {
	const rest = maxFrameLen + 1
	b := binary.LittleEndian.AppendUint32(nil, rest)
	b = append(b, 1)
	b = binary.LittleEndian.AppendUint32(b, rest-(frameHeadLen-4))
	b = binary.LittleEndian.AppendUint32(b, 0)
	br := bufio.NewReader(bytes.NewReader(b))
	head := make([]byte, frameHeadLen)
	if _, err := br.Read(head[:4]); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := (&Endpoint{inbox: fabric.NewQueue[fabric.Packet]()}).readFrame(&peer{}, br, head)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "protocol maximum") {
		t.Errorf("length %d: err %v, want the protocol maximum refused", rest, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<10 {
		t.Errorf("length %d: allocated %d bytes before refusing", rest, got)
	}

	eps := mesh(t, 2, Config{Transport: "tcp"})
	// 257 segments over one 1 MiB array: a 257 MiB frame in 1 MiB of memory.
	one := make([]byte, 1<<20)
	segs := make([]serde.Segment, 257)
	for i := range segs {
		segs[i].B = one
	}
	want := fmt.Sprintf("netfab: frame of %d bytes to rank 1 exceeds the protocol maximum of %d", frameHeadLen-4+5*len(segs)+len(segs)<<20, maxFrameLen)
	func() {
		defer func() {
			if got := fmt.Sprint(recover()); got != want {
				t.Errorf("oversized send: panic %q, want %q", got, want)
			}
		}()
		eps[0].SendSegs(1, 21, nil, segs)
	}()

	f := pool.Float64s(4 << 20 / 8)
	for i := range f {
		f[i] = float64(i)
	}
	eps[0].SendSegs(1, 21, nil, []serde.Segment{{F64: f}})
	pkt, ok := eps[1].Recv()
	if !ok || len(pkt.Segs) != 1 || len(pkt.Segs[0].F64) != 4<<20/8 {
		t.Fatalf("4 MiB frame: bad packet ok=%v segs=%d", ok, len(pkt.Segs))
	}
	for i, v := range pkt.Segs[0].F64 {
		if v != float64(i) {
			t.Fatalf("4 MiB frame: element %d = %v", i, v)
		}
	}
	pool.PutFloat64s(pkt.Segs[0].F64)
}
