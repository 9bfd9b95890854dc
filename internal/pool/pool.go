// Package pool provides size-classed free lists for the runtime's hot-path
// payload buffers. Tiled linear algebra and serialization churn through
// large []float64 and []byte slices whose sizes repeat for the lifetime of
// a run (one tile shape, a handful of message sizes), which makes them
// ideal sync.Pool citizens: steady-state iterations can recycle instead of
// allocate.
//
// Capacities are rounded up to powers of two so that a returned slice is
// reusable for every request in its class. Slices above the class ceiling
// are not pooled at all — they fall through to plain make and plain GC —
// so a single giant outlier cannot pin memory in a pool.
//
// Lifetime rules (see DESIGN.md §"Hot-path architecture"):
//   - A Put hands ownership to the pool; the caller must not touch the
//     slice again.
//   - Get returns a slice with undefined contents; callers that need zeroed
//     memory must use the *Zeroed variant or clear it themselves.
//   - Putting a slice that did not come from Get is allowed (capacity is
//     re-classified), but slices whose capacity is not an exact class size
//     are dropped rather than pooled.
package pool

import (
	"math/bits"
	"sync"
)

// Byte-slice classes: 256 B .. 4 MiB.
const (
	minByteBits = 8
	maxByteBits = 22
	numByte     = maxByteBits - minByteBits + 1
)

// Float64-slice classes: 32 .. 2 Mi elements (256 B .. 16 MiB).
const (
	minF64Bits = 5
	maxF64Bits = 21

	// NumF64Classes is the number of float64 size classes; exported so that
	// callers pooling whole objects keyed by payload class (e.g. tile.Tile)
	// can mirror the class table.
	NumF64Classes = maxF64Bits - minF64Bits + 1
)

var (
	bytePools [numByte]sync.Pool
	f64Pools  [NumF64Classes]sync.Pool
)

// classFor maps a requested length to (class index, class capacity).
// ok is false when n is zero or larger than the largest class.
func classFor(n, minBits, maxBits int) (cls, capacity int, ok bool) {
	if n <= 0 {
		return 0, 0, false
	}
	b := bits.Len(uint(n - 1)) // ceil(log2 n)
	if b < minBits {
		b = minBits
	}
	if b > maxBits {
		return 0, 0, false
	}
	return b - minBits, 1 << b, true
}

// exactClass maps a capacity to its class index only when the capacity is
// exactly a class size; pooling a short slice under a larger class would
// hand out slices that cannot satisfy the class's requests.
func exactClass(c, minBits, maxBits int) (int, bool) {
	if c <= 0 || c&(c-1) != 0 {
		return 0, false
	}
	b := bits.Len(uint(c)) - 1
	if b < minBits || b > maxBits {
		return 0, false
	}
	return b - minBits, true
}

// Bytes returns a []byte of length n (undefined contents) from the pool,
// or a fresh allocation when n is outside the pooled classes.
func Bytes(n int) []byte {
	cls, capacity, ok := classFor(n, minByteBits, maxByteBits)
	if !ok {
		return make([]byte, n)
	}
	if v := bytePools[cls].Get(); v != nil {
		return (*v.(*[]byte))[0:n]
	}
	return make([]byte, n, capacity)
}

// PutBytes returns a slice obtained from Bytes to its pool. Slices whose
// capacity is not an exact class size are dropped. (The *[]byte box costs
// one small allocation per Put; the payload array is what gets recycled.)
func PutBytes(s []byte) {
	cls, ok := exactClass(cap(s), minByteBits, maxByteBits)
	if !ok {
		return
	}
	s = s[:0]
	bytePools[cls].Put(&s)
}

// Float64s returns a []float64 of length n with undefined contents.
func Float64s(n int) []float64 {
	cls, capacity, ok := classFor(n, minF64Bits, maxF64Bits)
	if !ok {
		return make([]float64, n)
	}
	if v := f64Pools[cls].Get(); v != nil {
		return (*v.(*[]float64))[0:n]
	}
	return make([]float64, n, capacity)
}

// Float64sZeroed is Float64s with the contents cleared.
func Float64sZeroed(n int) []float64 {
	s := Float64s(n)
	clear(s)
	return s
}

// PutFloat64s returns a slice obtained from Float64s to its pool.
func PutFloat64s(s []float64) {
	cls, ok := exactClass(cap(s), minF64Bits, maxF64Bits)
	if !ok {
		return
	}
	s = s[:0]
	f64Pools[cls].Put(&s)
}

// CloneBytes returns a pooled copy of s: the snapshot a transport takes
// of a gathered payload segment when the sender retains ownership of the
// original. Return it with PutBytes (or via the owning object's Release).
func CloneBytes(s []byte) []byte {
	out := Bytes(len(s))
	copy(out, s)
	return out
}

// CloneFloat64s returns a pooled copy of s; see CloneBytes.
func CloneFloat64s(s []float64) []float64 {
	out := Float64s(len(s))
	copy(out, s)
	return out
}

// F64ClassFor returns the float64 size class for a payload of n elements,
// for callers that pool whole objects keyed by payload class. ok is false
// when n is outside the pooled range.
func F64ClassFor(n int) (int, bool) {
	cls, _, ok := classFor(n, minF64Bits, maxF64Bits)
	return cls, ok
}

// F64ClassCap returns the capacity (element count) of a float64 class.
func F64ClassCap(cls int) int { return 1 << (cls + minF64Bits) }

// Releasable is implemented by pooled objects that can be returned to
// their pool when the runtime is done with them (e.g. a received tile
// after its last consumer).
type Releasable interface{ Release() }
