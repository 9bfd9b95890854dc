package serde

// Built-in codecs for the common task-ID and payload types used throughout
// the library. Task IDs in the paper's examples are small integer tuples
// (Int1, Int2, Int3 in Listing 1); Void is the null type used for pure
// control flow (void data) or pure dataflow (void key).

// Void is the null type: a message part that carries no information.
type Void struct{}

// Int1 is a 1-tuple task ID (e.g. the Cholesky POTRF iteration).
type Int1 [1]int

// Int2 is a 2-tuple task ID (e.g. a tile coordinate).
type Int2 [2]int

// Int3 is a 3-tuple task ID (e.g. tile coordinate plus iteration).
type Int3 [3]int

// Int4 is a 4-tuple task ID (level + 3-D box index).
type Int4 [4]int

// Int5 is a 5-tuple task ID (the MRA tree keys: function id, level, and
// 3-D box index).
type Int5 [5]int

func init() {
	RegisterTrivial[Void](0,
		func(*Buffer, Void) {},
		func(*Buffer) Void { return Void{} })
	Register(FuncCodec[bool]{
		Enc:   func(b *Buffer, v bool) { b.PutBool(v) },
		Dec:   func(b *Buffer) bool { return b.Bool() },
		Size:  func(bool) int { return 1 },
		Proto: ProtoTrivial,
	})
	Register(FuncCodec[int]{
		Enc:   func(b *Buffer, v int) { b.PutVarint(int64(v)) },
		Dec:   func(b *Buffer) int { return int(b.Varint()) },
		Size:  func(v int) int { return VarintLen(int64(v)) },
		Proto: ProtoTrivial,
	})
	Register(FuncCodec[int64]{
		Enc:   func(b *Buffer, v int64) { b.PutVarint(v) },
		Dec:   func(b *Buffer) int64 { return b.Varint() },
		Size:  func(v int64) int { return VarintLen(v) },
		Proto: ProtoTrivial,
	})
	RegisterTrivial[float64](8,
		func(b *Buffer, v float64) { b.PutF64(v) },
		func(b *Buffer) float64 { return b.F64() })
	Register(FuncCodec[string]{
		Enc:   func(b *Buffer, v string) { b.PutString(v) },
		Dec:   func(b *Buffer) string { return b.String() },
		Size:  func(v string) int { return UvarintLen(uint64(len(v))) + len(v) },
		Proto: ProtoArchive,
	})
	Register(FuncCodec[[]byte]{
		Enc:  func(b *Buffer, v []byte) { b.PutBytes(v) },
		Dec:  func(b *Buffer) []byte { return b.BytesOut() },
		Size: func(v []byte) int { return UvarintLen(uint64(len(v))) + len(v) },
		Copy: func(v []byte) []byte {
			out := make([]byte, len(v))
			copy(out, v)
			return out
		},
		// The slice is its own payload: header records the length, the
		// one segment references the caller's array.
		Gather: func(hdr *Buffer, v []byte) ([]Segment, bool) {
			hdr.PutUvarint(uint64(len(v)))
			return []Segment{{B: v}}, true
		},
		Scatter: func(hdr *Buffer, segs []Segment) []byte {
			n := int(hdr.Uvarint())
			return OneByteSegment(segs, n)[:n:n]
		},
		Proto: ProtoArchive,
	})
	Register(FuncCodec[[]float64]{
		Enc:  func(b *Buffer, v []float64) { b.PutF64s(v) },
		Dec:  func(b *Buffer) []float64 { return b.F64s() },
		Size: func(v []float64) int { return UvarintLen(uint64(len(v))) + 8*len(v) },
		Copy: func(v []float64) []float64 {
			out := make([]float64, len(v))
			copy(out, v)
			return out
		},
		Gather: func(hdr *Buffer, v []float64) ([]Segment, bool) {
			hdr.PutUvarint(uint64(len(v)))
			return []Segment{{F64: v}}, true
		},
		Scatter: func(hdr *Buffer, segs []Segment) []float64 {
			n := int(hdr.Uvarint())
			return OneF64Segment(segs, n)[:n:n]
		},
		Proto: ProtoArchive,
	})
	Register(FuncCodec[Int1]{
		Enc: func(b *Buffer, v Int1) { b.PutVarint(int64(v[0])) },
		Dec: func(b *Buffer) Int1 { return Int1{int(b.Varint())} },
		Size: func(v Int1) int {
			return VarintLen(int64(v[0]))
		},
		Proto: ProtoTrivial,
	})
	Register(FuncCodec[Int2]{
		Enc: func(b *Buffer, v Int2) {
			b.PutVarint(int64(v[0]))
			b.PutVarint(int64(v[1]))
		},
		Dec: func(b *Buffer) Int2 {
			return Int2{int(b.Varint()), int(b.Varint())}
		},
		Size: func(v Int2) int {
			return VarintLen(int64(v[0])) + VarintLen(int64(v[1]))
		},
		Proto: ProtoTrivial,
	})
	Register(FuncCodec[Int3]{
		Enc: func(b *Buffer, v Int3) {
			b.PutVarint(int64(v[0]))
			b.PutVarint(int64(v[1]))
			b.PutVarint(int64(v[2]))
		},
		Dec: func(b *Buffer) Int3 {
			return Int3{int(b.Varint()), int(b.Varint()), int(b.Varint())}
		},
		Size: func(v Int3) int {
			return VarintLen(int64(v[0])) + VarintLen(int64(v[1])) + VarintLen(int64(v[2]))
		},
		Proto: ProtoTrivial,
	})
	Register(FuncCodec[Int4]{
		Enc: func(b *Buffer, v Int4) {
			for _, x := range v {
				b.PutVarint(int64(x))
			}
		},
		Dec: func(b *Buffer) Int4 {
			var v Int4
			for i := range v {
				v[i] = int(b.Varint())
			}
			return v
		},
		Size: func(v Int4) int {
			total := 0
			for _, x := range v {
				total += VarintLen(int64(x))
			}
			return total
		},
		Proto: ProtoTrivial,
	})
	Register(FuncCodec[Int5]{
		Enc: func(b *Buffer, v Int5) {
			for _, x := range v {
				b.PutVarint(int64(x))
			}
		},
		Dec: func(b *Buffer) Int5 {
			var v Int5
			for i := range v {
				v[i] = int(b.Varint())
			}
			return v
		},
		Size: func(v Int5) int {
			total := 0
			for _, x := range v {
				total += VarintLen(int64(x))
			}
			return total
		},
		Proto: ProtoTrivial,
	})
}

// VarintLen returns the encoded size of PutVarint(v).
func VarintLen(v int64) int {
	u := uint64(v) << 1
	if v < 0 {
		u = ^u
	}
	return UvarintLen(u)
}
