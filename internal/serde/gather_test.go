package serde

import "testing"

func TestGatherRoundTripF64s(t *testing.T) {
	c, err := TryLookupCached([]float64{})
	if err != nil {
		t.Fatal(err)
	}
	g, ok := c.Gatherer()
	if !ok {
		t.Fatal("[]float64 codec does not implement Gatherer")
	}
	v := make([]float64, 300)
	for i := range v {
		v[i] = float64(i) * 1.5
	}
	hdr := GetBuffer(64)
	defer hdr.Release()
	segs, ok := g.Segments(hdr, v)
	if !ok {
		t.Fatal("Segments declined a plain []float64")
	}
	if SegmentBytes(segs) != 8*len(v) {
		t.Fatalf("SegmentBytes = %d, want %d", SegmentBytes(segs), 8*len(v))
	}
	// The segment must reference v's memory, not a copy.
	if len(segs) != 1 || &segs[0].F64[0] != &v[0] {
		t.Fatal("gathered segment is not a reference to the source slice")
	}
	out := g.Scatter(FromBytes(hdr.Bytes()), segs).([]float64)
	if len(out) != len(v) || &out[0] != &v[0] {
		t.Fatal("scattered value is not a view over the segment")
	}
}

func TestGatherRoundTripBytes(t *testing.T) {
	g, ok := LookupCached([]byte{}).Gatherer()
	if !ok {
		t.Fatal("[]byte codec does not implement Gatherer")
	}
	v := make([]byte, 2048)
	for i := range v {
		v[i] = byte(i)
	}
	hdr := GetBuffer(64)
	defer hdr.Release()
	segs, ok := g.Segments(hdr, v)
	if !ok {
		t.Fatal("Segments declined a plain []byte")
	}
	if SegmentBytes(segs) != len(v) {
		t.Fatalf("SegmentBytes = %d, want %d", SegmentBytes(segs), len(v))
	}
	out := g.Scatter(FromBytes(hdr.Bytes()), segs).([]byte)
	if len(out) != len(v) || &out[0] != &v[0] {
		t.Fatal("scattered value is not a view over the segment")
	}
}

func TestGathererByTag(t *testing.T) {
	tag := WireTagOf([]float64{})
	g, ok := GathererByTag(tag)
	if !ok || g == nil {
		t.Fatal("GathererByTag missed the []float64 gather codec")
	}
	if _, ok := GathererByTag(WireTagOf(Int2{})); ok {
		t.Fatal("Int2 reported a gather codec")
	}
}

func TestViewLedger(t *testing.T) {
	base := LiveRecvViews()
	NoteViewDecode()
	if LiveRecvViews() != base+1 {
		t.Fatal("NoteViewDecode did not raise the gauge")
	}
	NoteViewEnd()
	if LiveRecvViews() != base {
		t.Fatal("NoteViewEnd did not lower the gauge")
	}
}

func TestRegisterGatherRequiresBoth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("registering Gather without Scatter did not panic")
		}
	}()
	type lopsided struct{ x float64 }
	Register(FuncCodec[lopsided]{
		Enc:  func(b *Buffer, v lopsided) { b.PutF64(v.x) },
		Dec:  func(b *Buffer) lopsided { return lopsided{b.F64()} },
		Size: func(lopsided) int { return 8 },
		Gather: func(hdr *Buffer, v lopsided) ([]Segment, bool) {
			return nil, false
		},
		Proto: ProtoTrivial,
	})
}
