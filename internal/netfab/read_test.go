package netfab

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
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
// unclaimed bytes would otherwise be read as the next frame's header. So
// is a frame whose length does hold its directory but whose segment count
// is over maxFrameSegs: a million empty segments in 5 MiB would cost
// 55 MB of directory and segment slice (2.8 GB at maxFrameLen).
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
		{"a million empty segments", frame(frameHeadLen-4+5<<20, 0, 1<<20, make([]byte, 5<<20)...)},
	} {
		br := bufio.NewReader(bytes.NewReader(tc.bytes))
		head := make([]byte, frameHeadLen)
		if _, err := br.Read(head[:4]); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := (&Endpoint{}).readFrame(&peer{}, br, head)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
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
	// TotalAlloc counts every goroutine of the process, so one attempt can
	// read another's allocation; the least of five independent attempts
	// is the refusal's own, and a refusal that did allocate the frame
	// would show in every one.
	least := uint64(math.MaxUint64)
	for range 5 {
		br := bufio.NewReader(bytes.NewReader(b))
		head := make([]byte, frameHeadLen)
		if _, err := br.Read(head[:4]); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := (&Endpoint{}).readFrame(&peer{}, br, head)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "protocol maximum") {
			t.Fatalf("length %d: err %v, want the protocol maximum refused", rest, err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 4<<10 {
		t.Errorf("length %d: allocated %d bytes before refusing (the least of five attempts)", rest, least)
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

// TestFrameSegmentMaximum: the sender refuses to build a frame with more
// than maxFrameSegs segments, naming the count and the peer, and a frame
// with exactly that many still round-trips.
func TestFrameSegmentMaximum(t *testing.T) {
	eps := mesh(t, 2, Config{Transport: "tcp"})
	segs := make([]serde.Segment, maxFrameSegs+1)
	want := fmt.Sprintf("netfab: frame of %d segments to rank 1 exceeds the protocol maximum of %d", len(segs), maxFrameSegs)
	func() {
		defer func() {
			if got := fmt.Sprint(recover()); got != want {
				t.Errorf("oversized send: panic %q, want %q", got, want)
			}
		}()
		eps[0].SendSegs(1, 21, nil, segs)
	}()

	eps[0].SendSegs(1, 21, nil, segs[:maxFrameSegs])
	pkt, ok := eps[1].Recv()
	if !ok || len(pkt.Segs) != maxFrameSegs {
		t.Fatalf("frame of %d segments: bad packet ok=%v segs=%d", maxFrameSegs, ok, len(pkt.Segs))
	}
}

// FuzzReadFrame drives readFrame, the header and segment-directory
// decoder, two ways. A frame the sender's own encoder builds from kind,
// data and one segment per byte of shape (its low bit the type, the rest
// the length) must come back as the same packet. The bytes of raw, behind
// a length field that counts them, must give an error or a packet, never
// a panic, and never allocate more than a fixed multiple of that length:
// 64 bytes per byte, the worst case being a directory of one-byte
// segments, each of which lands in the smallest pooled buffer.
func FuzzReadFrame(f *testing.F) {
	f.Add(uint8(7), []byte(nil), []byte(nil), []byte(nil))
	f.Add(uint8(21), []byte("header"), []byte{0, 1, 2, 3, 17, 64}, []byte{1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(1), []byte{9}, []byte{255, 254}, binary.LittleEndian.AppendUint32([]byte{1, 0, 0, 0, 0}, 1<<20))
	f.Add(uint8(2), []byte(nil), []byte{3}, slices.Concat([]byte{2, 0, 0, 0, 0, 2, 0, 0, 0}, []byte{1, 1, 0, 0, 0, 0, 0, 0, 0, 0}, make([]byte, 8)))
	read := func(frame []byte) (fabric.Packet, error) {
		br := bufio.NewReader(bytes.NewReader(frame))
		head := make([]byte, frameHeadLen)
		if _, err := io.ReadFull(br, head[:4]); err != nil {
			return fabric.Packet{}, err
		}
		return (&Endpoint{}).readFrame(&peer{}, br, head)
	}
	f.Fuzz(func(t *testing.T, kind uint8, data, shape, raw []byte) {
		kind %= fabric.KindReserved
		segs := make([]serde.Segment, min(len(shape), 64))
		for i := range segs {
			n := int(shape[i] >> 1)
			if shape[i]&1 == 1 {
				segs[i].F64 = make([]float64, n)
				for j := range n {
					segs[i].F64[j] = float64(i<<8 + j)
				}
			} else {
				segs[i].B = bytes.Repeat([]byte{byte(i)}, n)
			}
		}
		pkt, err := read(slices.Concat(buildFrame(kind, data, segs).bufs...))
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if pkt.Kind != kind || !bytes.Equal(pkt.Data, data) || len(pkt.Segs) != len(segs) {
			t.Fatalf("round trip: kind %d data %d bytes %d segments, sent %d, %d, %d", pkt.Kind, len(pkt.Data), len(pkt.Segs), kind, len(data), len(segs))
		}
		for i, s := range segs {
			got := pkt.Segs[i]
			if (got.F64 != nil) != (s.F64 != nil) || !slices.Equal(got.F64, s.F64) || !bytes.Equal(got.B, s.B) {
				t.Fatalf("round trip: segment %d differs", i)
			}
		}

		frame := binary.LittleEndian.AppendUint32(nil, uint32(len(raw)))
		frame = append(frame, raw...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = read(frame)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(frame))+16<<10; got > limit {
			t.Fatalf("a frame of %d bytes allocated %d bytes (err %v), over %d", len(frame), got, err, limit)
		}
	})
}
