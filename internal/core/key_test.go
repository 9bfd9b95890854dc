package core

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/serde"
)

// keyGolden pins what a packed key must reproduce of the boxed key it
// replaced: the delivery-header bytes serde.EncodeAny wrote for the value
// (one target {TT 2, Term 1}, CtrlSetSize N=5, SendMove), HeaderWireSize,
// HashKey (the default keymap) and fmt.Sprint. The expectations were
// produced by the any-keyed implementation.
var keyGolden = []struct {
	v      any
	header string
	size   int
	hash   int
	str    string
}{
	{serde.Int1{7}, "220a01020101080e", 8, 899785181, "[7]"},
	{serde.Int1{-300}, "220a0102010108d704", 9, 411017294, "[-300]"},
	{serde.Int2{1, -2}, "220a01020101090203", 9, 1762350744, "[1 -2]"},
	{serde.Int3{3, 4, 5}, "220a010201010a06080a", 10, 372974420, "[3 4 5]"},
	{serde.Int4{1, 2, 3, 1048576}, "220a010201010b02040680808001", 14, 522978710, "[1 2 3 1048576]"},
	{serde.Int5{0, 9, 8, 7, -6}, "220a010201010c0012100e0b", 12, 751861830, "[0 9 8 7 -6]"},
	{serde.Void{}, "220a0102010100", 7, 2065550767, "{}"},
	{42, "220a010201010254", 8, 803958421, "42"},
	{"tile", "220a01020101050474696c65", 12, 781962409, "tile"},
	{serde.Int3{1 << 40, 2, -3}, "220a010201010a8080808080400405", 15, 1942525029, "[1099511627776 2 -3]"},
}

func goldenDelivery(k Key) Delivery {
	return Delivery{Targets: []TermTarget{{TT: 2, Term: 1, Keys: []Key{k}}}, Control: CtrlSetSize, N: 5, Mode: SendMove}
}

func TestKeyHeaderBytesGolden(t *testing.T) {
	for _, c := range keyGolden {
		d := goldenDelivery(KeyOf(c.v))
		b := serde.NewBuffer(64)
		EncodeHeader(b, d)
		if got := hex.EncodeToString(b.Bytes()); got != c.header {
			t.Errorf("%#v: header %s, want %s", c.v, got, c.header)
		}
		if got := HeaderWireSize(d); got != c.size {
			t.Errorf("%#v: HeaderWireSize %d, want %d", c.v, got, c.size)
		}
		back := DecodeHeader(serde.FromBytes(b.Bytes()))
		if got := back.Targets[0].Keys[0].Value(); got != c.v {
			t.Errorf("%#v: decodes to %#v", c.v, got)
		}
	}
}

func TestHashKeyGolden(t *testing.T) {
	for _, c := range keyGolden {
		if got := HashKey(KeyOf(c.v)); got != c.hash {
			t.Errorf("HashKey(%#v) = %d, want %d", c.v, got, c.hash)
		}
	}
}

func TestKeyStringIsSprint(t *testing.T) {
	for _, c := range keyGolden {
		k := KeyOf(c.v)
		if got := k.String(); got != c.str || got != fmt.Sprint(c.v) {
			t.Errorf("%#v: String() = %q, fmt.Sprint = %q, want %q", c.v, got, fmt.Sprint(c.v), c.str)
		}
	}
}

// TestPackAgreesWithKeyOf checks the typed packer against the boxed one,
// Unpack against Value, and that neither allocates for an in-range tuple.
func TestPackAgreesWithKeyOf(t *testing.T) {
	check := func(k, want Key) {
		t.Helper()
		if k != want {
			t.Errorf("Pack = %v, KeyOf = %v", k, want)
		}
	}
	check(Pack(serde.Int1{-5}), KeyOf(serde.Int1{-5}))
	check(Pack(serde.Int2{1, 2}), KeyOf(serde.Int2{1, 2}))
	check(Pack(serde.Int3{1, 2, 3}), KeyOf(serde.Int3{1, 2, 3}))
	check(Pack(serde.Int4{1, 2, 3, 4}), KeyOf(serde.Int4{1, 2, 3, 4}))
	check(Pack(serde.Int5{1, 2, 3, 4, 5}), KeyOf(serde.Int5{1, 2, 3, 4, 5}))
	check(Pack(9), KeyOf(9))
	check(Pack(serde.Void{}), Key{})
	if KeyOf(serde.Int1{1}) == KeyOf(1) {
		t.Error("Int1{1} and int 1 must be distinct keys")
	}
	if got := Unpack[serde.Int3](Pack(serde.Int3{7, -8, 9})); got != (serde.Int3{7, -8, 9}) {
		t.Errorf("Unpack = %v", got)
	}
	big := serde.Int2{1 << 33, 0}
	if got := Unpack[serde.Int2](Pack(big)); got != big {
		t.Errorf("interned Unpack = %v", got)
	}
	if got := Unpack[any](Pack(serde.Int1{4})); got != any(serde.Int1{4}) {
		t.Errorf("Unpack[any] = %#v", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Unpack of an Int2 key as Int3 did not panic")
			}
		}()
		Unpack[serde.Int3](Pack(serde.Int2{1, 2}))
	}()
	if n := testing.AllocsPerRun(100, func() {
		k := Pack(serde.Int3{1, 2, 3})
		_ = Unpack[serde.Int3](k)
		_ = HashKey(k)
	}); n != 0 {
		t.Errorf("Pack/Unpack/HashKey allocate %v times", n)
	}
}

// TestInternedKeysAreCanonicalPerGraph: two packings of one string are
// distinct orphans, equal once a graph canonicalizes them; a key interned
// by another graph is re-interned, not trusted.
func TestInternedKeysAreCanonicalPerGraph(t *testing.T) {
	c := newMockCluster(2, true)
	g0, g1 := c.graphs[0], c.graphs[1]
	a, b := KeyOf("x"), KeyOf("x")
	if a == b {
		t.Fatal("orphans compare equal by pointer")
	}
	ca, cb := g0.canon(a), g0.canon(b)
	if ca != cb || ca.Value() != "x" || HashKey(ca) != HashKey(a) {
		t.Fatalf("canon: %v %v", ca, cb)
	}
	if g0.canon(ca) != ca {
		t.Fatal("canonical key re-interned")
	}
	if o := g1.canon(ca); o == ca || o != g1.canon(KeyOf("x")) {
		t.Fatal("another graph's key not re-interned")
	}
	if KeyOf(serde.Int1{1 << 40}) == KeyOf(serde.Int1{1 << 40}) || g0.canon(KeyOf(serde.Int1{1 << 40})) != g0.canon(KeyOf(serde.Int1{1 << 40})) {
		t.Fatal("out-of-range tuples do not intern")
	}
}

// expectHeaderPanic decodes data and requires the named corrupt-header
// panic.
func expectHeaderPanic(t *testing.T, what string, data []byte) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if msg, _ := r.(string); !strings.HasPrefix(msg, "core: corrupt delivery header: ") {
			t.Errorf("%s: panic %v, want a corrupt-delivery-header panic", what, r)
		}
	}()
	DecodeHeader(serde.FromBytes(data))
}

func TestDecodeHeaderRejectsCorrupt(t *testing.T) {
	hdr := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	uv := func(v uint64) []byte {
		b := serde.NewBuffer(10)
		b.PutUvarint(v)
		return b.Bytes()
	}
	ctl := []byte{byte(CtrlNone)}
	int3 := uv(uint64(kindTag[kindInt3]))
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"target count past the input", hdr(ctl, uv(1<<62))},
		{"target count one past", hdr(ctl, uv(2), uv(0), uv(0), uv(0))},
		{"key count past the input", hdr(ctl, uv(1), uv(0), uv(0), uv(1<<62))},
		{"key count one past", hdr(ctl, uv(1), uv(0), uv(0), uv(2), uv(uint64(kindTag[kindVoid])))},
		{"tuple short of its arity", hdr(ctl, uv(1), uv(0), uv(0), uv(1), int3, []byte{2, 4})},
		{"unknown key tag", hdr(ctl, uv(1), uv(0), uv(0), uv(1), uv(1<<30))},
		{"non-comparable key type", hdr(ctl, uv(1), uv(0), uv(0), uv(1), uv(uint64(serde.WireTagOf([]byte(nil)))), uv(0))},
		{"unterminated varint", hdr(ctl, []byte{0xff, 0xff})},
	} {
		expectHeaderPanic(t, c.name, c.data)
	}
}

// FuzzDecodeHeader: encoded headers round-trip, and arbitrary bytes either
// decode — to no more targets and keys than there were input bytes, and
// to a header that itself round-trips — or raise the named panic.
func FuzzDecodeHeader(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for range 16 {
		d := randomDelivery(rng)
		if rng.Intn(3) == 0 {
			d.Flow = rng.Uint64() >> uint(rng.Intn(64))
		}
		b := serde.NewBuffer(64)
		EncodeHeader(b, d)
		f.Add(b.Bytes())
	}
	for _, c := range keyGolden {
		b := serde.NewBuffer(64)
		EncodeHeader(b, goldenDelivery(KeyOf(c.v)))
		f.Add(b.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Delivery
		ok := func() (ok bool) {
			defer func() {
				if r := recover(); r != nil {
					if msg, _ := r.(string); !strings.HasPrefix(msg, "core: corrupt delivery header: ") {
						t.Fatalf("unnamed panic: %v", r)
					}
				}
			}()
			d = DecodeHeader(serde.FromBytes(data))
			return true
		}()
		if !ok {
			return
		}
		n := len(d.Targets)
		for _, tg := range d.Targets {
			n += len(tg.Keys)
		}
		if n > len(data) {
			t.Fatalf("%d bytes decoded to %d targets and keys", len(data), n)
		}
		// Compare encodings, not values: a float64 key may be NaN.
		b := serde.NewBuffer(len(data))
		EncodeHeader(b, d)
		again := serde.NewBuffer(b.Len())
		EncodeHeader(again, DecodeHeader(serde.FromBytes(b.Bytes())))
		if !bytes.Equal(again.Bytes(), b.Bytes()) {
			t.Fatalf("round trip of %+v:\n got %x\nwant %x", d, again.Bytes(), b.Bytes())
		}
	})
}
