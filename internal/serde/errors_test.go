package serde

import (
	"errors"
	"math"
	"strings"
	"testing"
)

type unregisteredType struct{ x int }

func TestUnregisteredTypePanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("encoding an unregistered type did not panic")
		}
		err, ok := r.(*ErrUnregistered)
		if !ok {
			t.Fatalf("panic value is %T, want *ErrUnregistered", r)
		}
		if !strings.Contains(err.Type, "unregisteredType") {
			t.Fatalf("ErrUnregistered.Type = %q, want the offending type name", err.Type)
		}
		if !strings.Contains(err.Error(), "unregisteredType") {
			t.Fatalf("Error() = %q, want it to name the type", err.Error())
		}
	}()
	b := NewBuffer(8)
	EncodeAny(b, unregisteredType{1})
}

func TestTryLookupCached(t *testing.T) {
	c, err := TryLookupCached(unregisteredType{1})
	if c != nil || err == nil {
		t.Fatalf("TryLookupCached(unregistered) = (%v, %v), want (nil, error)", c, err)
	}
	var unreg *ErrUnregistered
	if !errors.As(err, &unreg) {
		t.Fatalf("error is %T, want *ErrUnregistered", err)
	}
	if !strings.Contains(unreg.Type, "unregisteredType") {
		t.Fatalf("ErrUnregistered.Type = %q, want the offending type name", unreg.Type)
	}

	c, err = TryLookupCached(Int2{1, 2})
	if err != nil {
		t.Fatalf("TryLookupCached(Int2) error: %v", err)
	}
	if !c.For(Int2{3, 4}) {
		t.Fatal("cached codec does not validate for its own type")
	}
	if c.For(Int3{}) {
		t.Fatal("cached codec validated for a different type")
	}
	if c.Tag() != WireTagOf(Int2{}) {
		t.Fatal("cached tag disagrees with registry")
	}
	// Cached encode/size agree with the package-level functions.
	want := NewBuffer(16)
	EncodeAny(want, Int2{7, 9})
	got := NewBuffer(16)
	c.EncodeAny(got, Int2{7, 9})
	if string(got.Bytes()) != string(want.Bytes()) {
		t.Fatal("Cached.EncodeAny output differs from EncodeAny")
	}
	if c.WireSizeAny(Int2{7, 9}) != WireSizeAny(Int2{7, 9}) {
		t.Fatal("Cached.WireSizeAny disagrees with WireSizeAny")
	}
}

func TestRegisteredPredicate(t *testing.T) {
	if Registered(unregisteredType{}) {
		t.Fatal("unregistered type reported registered")
	}
	if !Registered(Int2{}) {
		t.Fatal("Int2 reported unregistered")
	}
}

func TestUnknownWireTagPanics(t *testing.T) {
	b := NewBuffer(8)
	b.PutUvarint(999999) // no such tag
	defer func() {
		if recover() == nil {
			t.Fatal("decoding an unknown tag did not panic")
		}
	}()
	DecodeAny(FromBytes(b.Bytes()))
}

func TestCorruptVarintPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("corrupt varint did not panic")
		}
	}()
	// 10 continuation bytes: invalid varint.
	FromBytes([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}).Varint()
}

func TestReRegisterKeepsTag(t *testing.T) {
	tag1 := WireTagOf(Int1{})
	Register(FuncCodec[Int1]{ // replace with an equivalent codec
		Enc:   func(b *Buffer, v Int1) { b.PutVarint(int64(v[0])) },
		Dec:   func(b *Buffer) Int1 { return Int1{int(b.Varint())} },
		Size:  func(v Int1) int { return VarintLen(int64(v[0])) },
		Proto: ProtoTrivial,
	})
	if WireTagOf(Int1{}) != tag1 {
		t.Fatal("re-registration changed the wire tag")
	}
	// Round trip still works.
	b := NewBuffer(8)
	EncodeAny(b, Int1{5})
	if DecodeAny(FromBytes(b.Bytes())) != any(Int1{5}) {
		t.Fatal("round trip broken after re-registration")
	}
}

func TestRegisterNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RegisterType(nil) did not panic")
		}
	}()
	RegisterType(nil, nil)
}

// TestWireLengthsAreCheckedBeforeUse feeds each length-prefixed reader a
// length its input cannot hold: one element too many for what follows
// (truncated payload) and an absurd one (a corrupt prefix, which used to
// size a multi-GB make). Both must be refused with the serde: corrupt
// panic, before anything is allocated or sliced.
func TestWireLengthsAreCheckedBeforeUse(t *testing.T) {
	readers := map[string]struct {
		elem int
		read func(*Buffer)
	}{
		"F64s":     {8, func(b *Buffer) { b.F64s() }},
		"BytesOut": {1, func(b *Buffer) { b.BytesOut() }},
		"String":   {1, func(b *Buffer) { _ = b.String() }},
	}
	for name, r := range readers {
		for _, tc := range []struct {
			what   string
			length uint64
		}{
			{"truncated payload", 4},
			{"over-long length", 1 << 40},
		} {
			b := NewBuffer(64)
			b.PutUvarint(tc.length)
			b.PutRaw(make([]byte, 4*r.elem-1)) // one byte short of 4 elements
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.HasPrefix(msg, "serde: corrupt length") {
						t.Errorf("%s, %s: recovered %q, want a serde: corrupt length panic", name, tc.what, msg)
					}
				}()
				r.read(FromBytes(b.Bytes()))
			}()
		}
		// The exact fit is still accepted.
		b := NewBuffer(64)
		b.PutUvarint(4)
		b.PutRaw(make([]byte, 4*r.elem))
		r.read(FromBytes(b.Bytes()))
	}
}

func TestF64sBulkRoundTrip(t *testing.T) {
	// Lengths around the four-element blocking of PutF64s, incl. empty,
	// written back to back so a wrong window would clobber a neighbour.
	b := NewBuffer(0)
	var want [][]float64
	for n := 0; n <= 9; n++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Float64frombits(0x3FF0000000000001 + uint64(97*n+i)<<13)
		}
		want = append(want, v)
		b.PutF64s(v)
	}
	r := FromBytes(b.Bytes())
	for n, w := range want {
		got := r.F64s()
		if len(got) != n {
			t.Fatalf("length %d came back as %d", n, len(got))
		}
		for i := range w {
			if math.Float64bits(got[i]) != math.Float64bits(w[i]) {
				t.Fatalf("length %d element %d: %v, want %v", n, i, got[i], w[i])
			}
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left after reading everything back", r.Remaining())
	}
}
