package serde

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBufferPrimitivesRoundTrip(t *testing.T) {
	b := NewBuffer(64)
	b.PutU8(200)
	b.PutU32(1 << 30)
	b.PutU64(1 << 60)
	b.PutVarint(-12345)
	b.PutUvarint(98765)
	b.PutBool(true)
	b.PutF64(math.Pi)
	b.PutBytes([]byte{1, 2, 3})
	b.PutString("ttg")
	b.PutF64s([]float64{1.5, -2.5})

	r := FromBytes(b.Bytes())
	if got := r.U8(); got != 200 {
		t.Errorf("U8 = %d", got)
	}
	if got := r.U32(); got != 1<<30 {
		t.Errorf("U32 = %d", got)
	}
	if got := r.U64(); got != 1<<60 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.Varint(); got != -12345 {
		t.Errorf("Varint = %d", got)
	}
	if got := r.Uvarint(); got != 98765 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Bool(); !got {
		t.Errorf("Bool = %v", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.BytesOut(); !reflect.DeepEqual(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := r.String(); got != "ttg" {
		t.Errorf("String = %q", got)
	}
	if got := r.F64s(); !reflect.DeepEqual(got, []float64{1.5, -2.5}) {
		t.Errorf("F64s = %v", got)
	}
	if r.Remaining() != 0 {
		t.Errorf("remaining %d bytes", r.Remaining())
	}
}

func TestVarintRoundTripProperty(t *testing.T) {
	f := func(v int64) bool {
		b := NewBuffer(10)
		b.PutVarint(v)
		if b.Len() != VarintLen(v) {
			return false
		}
		return FromBytes(b.Bytes()).Varint() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeAnyRoundTripBuiltins(t *testing.T) {
	cases := []any{
		Void{},
		true,
		int(-42),
		int64(1 << 40),
		3.75,
		"hello ttg",
		[]byte{9, 8, 7},
		[]float64{0.5, 1.5, 2.5},
		Int1{7},
		Int2{3, -4},
		Int3{1, 2, 3},
		Int4{4, 3, 2, 1},
	}
	for _, v := range cases {
		b := NewBuffer(64)
		EncodeAny(b, v)
		got := DecodeAny(FromBytes(b.Bytes()))
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip %T: got %v want %v", v, got, v)
		}
	}
}

func TestWireSizeMatchesEncoding(t *testing.T) {
	cases := []any{int(-1), int64(300), 2.5, "abc", []float64{1, 2}, Int3{10, 20, 30}}
	for _, v := range cases {
		b := NewBuffer(64)
		EncodeAny(b, v)
		if got, want := b.Len(), WireSizeAny(v); got != want {
			t.Errorf("%T: encoded %d bytes, WireSizeAny says %d", v, got, want)
		}
	}
}

func TestTupleRoundTripProperty(t *testing.T) {
	f := func(a, b, c int) bool {
		v := Int3{a, b, c}
		buf := NewBuffer(32)
		EncodeAny(buf, v)
		return DecodeAny(FromBytes(buf.Bytes())) == any(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	orig := []float64{1, 2, 3}
	clone := CloneAny(orig).([]float64)
	clone[0] = 99
	if orig[0] != 1 {
		t.Fatalf("clone aliases original slice")
	}
	ob := []byte{1, 2}
	cb := CloneAny(ob).([]byte)
	cb[0] = 7
	if ob[0] != 1 {
		t.Fatalf("clone aliases original bytes")
	}
}

// TestProtocolPreferences: a codec is trivial or archive; splitmd is an
// opt-in beside the codec that leaves the codec's own protocol alone.
func TestProtocolPreferences(t *testing.T) {
	proto := func(v any) Protocol { return lookupType(v).codec.Protocol() }
	if p := proto(Int2{1, 2}); p != ProtoTrivial {
		t.Errorf("Int2 protocol = %v, want trivial", p)
	}
	if p := proto("s"); p != ProtoArchive {
		t.Errorf("string protocol = %v, want archive", p)
	}
	v := &smdValue{dims: 3, data: []byte{1, 2, 3}}
	if p := proto(v); p != ProtoArchive {
		t.Errorf("splitmd-capable type's codec protocol = %v, want archive", p)
	}
	if _, ok := SplitMDFor(v); !ok {
		t.Errorf("registered splitmd type not found")
	}
	if _, ok := SplitMDFor("s"); ok {
		t.Errorf("string reported as splitmd-capable")
	}
}

// smdValue is a minimal splitmd-capable type used by tests.
type smdValue struct {
	dims int
	data []byte
}

func (s *smdValue) PayloadBytes() int { return len(s.data) }

func init() {
	Register(FuncCodec[*smdValue]{
		Enc: func(b *Buffer, v *smdValue) {
			b.PutVarint(int64(v.dims))
			b.PutBytes(v.data)
		},
		Dec: func(b *Buffer) *smdValue {
			return &smdValue{dims: int(b.Varint()), data: b.BytesOut()}
		},
		Size: func(v *smdValue) int { return 10 + len(v.data) },
		Copy: func(v *smdValue) *smdValue {
			d := make([]byte, len(v.data))
			copy(d, v.data)
			return &smdValue{dims: v.dims, data: d}
		},
		Proto: ProtoArchive,
	})
	RegisterSplitMD(&smdValue{})
}

// optOut has the SplitMD method set (promoted) but never opted in.
type optOut struct{ smdValue }

// noCodec has the SplitMD method set and nothing else.
type noCodec struct{}

func (noCodec) PayloadBytes() int { return 0 }

// TestSplitMDAllocateAndFill pins what is left of splitmd in this package
// now that no transport allocates from metadata or fills by RMA: the
// opt-in. SplitMDFor hands back the value itself, whose PayloadBytes is
// what a cost model charges; having the method is not opting in; and a
// type with no codec cannot opt in, because the codec is what carries it
// wherever splitmd is off.
func TestSplitMDAllocateAndFill(t *testing.T) {
	src := &smdValue{dims: 3, data: []byte{5, 6, 7}}
	got, ok := SplitMDFor(src)
	if !ok || got != SplitMD(src) || got.PayloadBytes() != 3 {
		t.Fatalf("SplitMDFor = %v, %v; want the value itself, 3 payload bytes", got, ok)
	}
	if _, ok := SplitMDFor(&optOut{}); ok {
		t.Fatal("a type that never registered is reported as opted in")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RegisterSplitMD accepted a type with no codec")
		}
	}()
	RegisterSplitMD(noCodec{})
}

func TestRegisteredTypesStable(t *testing.T) {
	names := RegisteredTypes()
	if len(names) == 0 {
		t.Fatal("no registered types")
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate registration for %s", n)
		}
		seen[n] = true
	}
}
