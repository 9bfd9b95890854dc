// Package serde implements the serialization framework used by TTG to move
// task IDs and data values between ranks.
//
// The paper (§II-C) describes several serialization mechanisms selected by
// type traits: trivial (memcpy) for POD types, archive-based serialization
// (the Boost.Serialization analog, here a compact in-memory archive), and
// the intrusive two-stage split-metadata (splitmd) protocol in which a small
// metadata header travels eagerly and the contiguous payload is fetched with
// remote memory access. This package provides the codec registry, the
// archive buffer, the gather extension (metadata framed, payload by
// reference: what splitmd becomes on a fabric without RMA) and the splitmd
// opt-in, which only the simulator's cost model reads.
package serde

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
)

// Buffer is a compact append-only archive used to serialize messages.
// It is deliberately minimal: unlike general-purpose archives it performs
// no type versioning or pointer tracking (the paper notes stock archives
// are "ill-suited for high-performance applications like TTG").
type Buffer struct {
	data []byte
	off  int // read offset
}

// NewBuffer returns an empty write buffer with the given capacity hint.
func NewBuffer(capacity int) *Buffer {
	return &Buffer{data: make([]byte, 0, capacity)}
}

// FromBytes wraps an encoded byte slice for reading.
func FromBytes(b []byte) *Buffer { return &Buffer{data: b} }

// bufPool recycles Buffers (and their backing arrays) across encode
// operations; the runtime's hot send paths allocate nothing at steady
// state. Backing arrays above maxPooledBuffer are dropped so one giant
// message cannot pin memory in the pool.
var bufPool = sync.Pool{New: func() any { return &Buffer{} }}

const maxPooledBuffer = 1 << 22

// GetBuffer returns a pooled write buffer with at least the given capacity.
// Pair with Release (give the buffer back) or Detach (keep the bytes, give
// the wrapper back).
func GetBuffer(capacity int) *Buffer {
	b := bufPool.Get().(*Buffer)
	b.off = 0
	if cap(b.data) < capacity {
		if capacity < 64 {
			capacity = 64
		}
		b.data = make([]byte, 0, capacity)
	} else {
		b.data = b.data[:0]
	}
	return b
}

// Release returns a buffer obtained from GetBuffer (or FromBytes, once the
// caller is done reading) to the pool. The buffer must not be used after.
func (b *Buffer) Release() {
	if cap(b.data) > maxPooledBuffer {
		b.data = nil
	} else {
		b.data = b.data[:0]
	}
	b.off = 0
	bufPool.Put(b)
}

// Detach surrenders the encoded bytes to the caller (e.g. to hand a packet
// to the network, which then owns the array) and recycles the wrapper.
// The buffer must not be used after.
func (b *Buffer) Detach() []byte {
	data := b.data
	b.data = nil
	b.off = 0
	bufPool.Put(b)
	return data
}

// Recycle donates a byte slice (typically a fully consumed receive
// buffer) to the encode pool. The caller must own the array outright.
func Recycle(data []byte) {
	c := cap(data)
	if c == 0 || c > maxPooledBuffer {
		return
	}
	bufPool.Put(&Buffer{data: data[:0]})
}

// Bytes returns the encoded contents.
func (b *Buffer) Bytes() []byte { return b.data }

// Len returns the number of encoded bytes.
func (b *Buffer) Len() int { return len(b.data) }

// Remaining reports how many bytes are left to read.
func (b *Buffer) Remaining() int { return len(b.data) - b.off }

// Reset clears the buffer for reuse.
func (b *Buffer) Reset() { b.data = b.data[:0]; b.off = 0 }

func (b *Buffer) PutU8(v uint8) { b.data = append(b.data, v) }
func (b *Buffer) PutU32(v uint32) {
	b.data = binary.LittleEndian.AppendUint32(b.data, v)
}
func (b *Buffer) PutU64(v uint64) {
	b.data = binary.LittleEndian.AppendUint64(b.data, v)
}
func (b *Buffer) PutVarint(v int64) {
	b.data = binary.AppendVarint(b.data, v)
}
func (b *Buffer) PutUvarint(v uint64) {
	b.data = binary.AppendUvarint(b.data, v)
}
func (b *Buffer) PutBool(v bool) {
	if v {
		b.PutU8(1)
	} else {
		b.PutU8(0)
	}
}
func (b *Buffer) PutF64(v float64) { b.PutU64(math.Float64bits(v)) }

// PutBytes writes a length-prefixed byte slice.
func (b *Buffer) PutBytes(p []byte) {
	b.PutUvarint(uint64(len(p)))
	b.data = append(b.data, p...)
}

// PutRaw appends bytes without a length prefix.
func (b *Buffer) PutRaw(p []byte) { b.data = append(b.data, p...) }

// PutString writes a length-prefixed string.
func (b *Buffer) PutString(s string) {
	b.PutUvarint(uint64(len(s)))
	b.data = append(b.data, s...)
}

// PutF64s writes a length-prefixed []float64: one growth, then a
// conversion over the pre-sliced window, four elements per bounds check.
func (b *Buffer) PutF64s(v []float64) {
	b.PutUvarint(uint64(len(v)))
	n := len(b.data)
	b.data = slices.Grow(b.data, 8*len(v))[:n+8*len(v)]
	w := b.data[n:]
	for ; len(v) >= 4; v, w = v[4:], w[32:] {
		_ = w[31]
		binary.LittleEndian.PutUint64(w, math.Float64bits(v[0]))
		binary.LittleEndian.PutUint64(w[8:], math.Float64bits(v[1]))
		binary.LittleEndian.PutUint64(w[16:], math.Float64bits(v[2]))
		binary.LittleEndian.PutUint64(w[24:], math.Float64bits(v[3]))
	}
	for i, x := range v {
		binary.LittleEndian.PutUint64(w[8*i:], math.Float64bits(x))
	}
}

func (b *Buffer) U8() uint8 {
	v := b.data[b.off]
	b.off++
	return v
}
func (b *Buffer) U32() uint32 {
	v := binary.LittleEndian.Uint32(b.data[b.off:])
	b.off += 4
	return v
}
func (b *Buffer) U64() uint64 {
	v := binary.LittleEndian.Uint64(b.data[b.off:])
	b.off += 8
	return v
}
func (b *Buffer) Varint() int64 {
	v, n := binary.Varint(b.data[b.off:])
	if n <= 0 {
		panic(fmt.Sprintf("serde: corrupt varint at offset %d", b.off))
	}
	b.off += n
	return v
}
func (b *Buffer) Uvarint() uint64 {
	v, n := binary.Uvarint(b.data[b.off:])
	if n <= 0 {
		panic(fmt.Sprintf("serde: corrupt uvarint at offset %d", b.off))
	}
	b.off += n
	return v
}

// Count reads a wire-supplied element count and refuses one whose
// elements, at size bytes (≥ 1) each, cannot fit in what is left to read:
// no allocation or slice bound is ever sized by an unchecked length.
func (b *Buffer) Count(size int) int {
	n := b.Uvarint()
	if n > uint64(b.Remaining()/size) {
		panic(fmt.Sprintf("serde: corrupt length %d before offset %d: %d bytes remain", n, b.off, b.Remaining()))
	}
	return int(n)
}

func (b *Buffer) Bool() bool { return b.U8() != 0 }
func (b *Buffer) F64() float64 {
	return math.Float64frombits(b.U64())
}

// BytesOut reads a length-prefixed byte slice (copied).
func (b *Buffer) BytesOut() []byte {
	n := b.Count(1)
	out := make([]byte, n)
	copy(out, b.data[b.off:b.off+n])
	b.off += n
	return out
}

// RawOut reads n bytes without copying (view into the buffer).
func (b *Buffer) RawOut(n int) []byte {
	v := b.data[b.off : b.off+n]
	b.off += n
	return v
}

// String reads a length-prefixed string.
func (b *Buffer) String() string {
	n := b.Count(1)
	s := string(b.data[b.off : b.off+n])
	b.off += n
	return s
}

// F64s reads a length-prefixed []float64.
func (b *Buffer) F64s() []float64 {
	n := b.Count(8)
	out := make([]float64, n)
	r := b.data[b.off : b.off+8*n]
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r))
		r = r[8:]
	}
	b.off += 8 * n
	return out
}
