package core

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"

	"repro/internal/serde"
)

// Packed task IDs. Every application key of the paper's examples is a
// small integer tuple (serde.Int1…Int5), a plain int, or serde.Void, so the
// engine carries keys as one fixed-size comparable value instead of an
// interface box: matching hashes and compares 32 bytes in place, and a key
// list is a flat slice. Coordinates are stored as int32; a coordinate out
// of that range, and any other comparable key type (a string, a user
// struct), is interned instead: the Key then points at an entry holding
// the original value and its hash. Entries are canonical per graph, so
// two interned Keys of one graph are equal exactly when their values are.
// A Key packed outside any graph (Pack, KeyOf, DecodeHeader) may carry an
// orphan entry; each graph canonicalizes keys where they enter its match
// table (Graph.canon).

// keyKind tags what a packed Key holds. The zero Key is Void.
type keyKind uint8

const (
	kindVoid keyKind = iota // serde.Void
	kindInt1                // serde.Int1 … serde.Int5: the kind is the arity
	kindInt2
	kindInt3
	kindInt4
	kindInt5
	kindInt      // int
	kindInterned // any other value; Key.x holds it
	numPacked    = kindInterned
)

// Key is a task ID. It is comparable, and equal Keys of one graph name the
// same task instance.
type Key struct {
	x    *keyEntry // interned value; nil for packed kinds
	c    [5]int32  // coordinates of packed kinds
	kind keyKind
}

// keyEntry is one interned key value.
type keyEntry struct {
	v    any
	hash uint64    // taskHashAny(v), computed once
	tab  *keyTable // the graph table that made the entry canonical; nil for an orphan
}

// keyTable interns one graph's non-packable keys.
type keyTable struct {
	mu sync.Mutex
	m  map[any]*keyEntry
}

// intern returns the canonical Key for e's value in t.
func (t *keyTable) intern(e *keyEntry) Key {
	t.mu.Lock()
	c, ok := t.m[e.v]
	if !ok {
		if t.m == nil {
			t.m = make(map[any]*keyEntry)
		}
		c = &keyEntry{v: e.v, hash: e.hash, tab: t}
		t.m[e.v] = c
	}
	t.mu.Unlock()
	return Key{x: c, kind: kindInterned}
}

// canon returns k as this graph's canonical key: packed keys already are;
// an interned key from another table (an orphan, or another rank's graph
// in the simulator) is re-interned here.
func (g *Graph) canon(k Key) Key {
	if k.x == nil || k.x.tab == &g.keys {
		return k
	}
	return g.keys.intern(k.x)
}

// arity is the number of coordinates a packed kind stores.
func (k keyKind) arity() int {
	switch {
	case k == kindInt:
		return 1
	case k <= kindInt5:
		return int(k)
	}
	return 0
}

// tuple packs coordinates c under kind; ok is false when one does not fit
// in int32.
func tuple(kind keyKind, c []int) (k Key, ok bool) {
	k.kind = kind
	for i, x := range c {
		if x != int(int32(x)) {
			return Key{}, false
		}
		k.c[i] = int32(x)
	}
	return k, true
}

// orphan interns v outside any graph.
func orphan(v any) Key {
	if t := reflect.TypeOf(v); t == nil || !t.Comparable() {
		panic(fmt.Sprintf("core: task ID of type %T is not comparable", v))
	}
	return Key{x: &keyEntry{v: v, hash: taskHashAny(v)}, kind: kindInterned}
}

// KeyOf packs an application key value. The builtin tuple types, int and
// Void pack inline; anything else is interned. A Key passes through.
func KeyOf(v any) Key {
	var (
		k  Key
		ok bool
	)
	switch x := v.(type) {
	case Key:
		return x
	case serde.Void:
		return Key{}
	case int:
		k, ok = tuple(kindInt, []int{x})
	case serde.Int1:
		k, ok = tuple(kindInt1, x[:])
	case serde.Int2:
		k, ok = tuple(kindInt2, x[:])
	case serde.Int3:
		k, ok = tuple(kindInt3, x[:])
	case serde.Int4:
		k, ok = tuple(kindInt4, x[:])
	case serde.Int5:
		k, ok = tuple(kindInt5, x[:])
	}
	if ok {
		return k
	}
	return orphan(v)
}

// Pack is KeyOf for a statically typed key: the builtin key types pack
// without an interface conversion.
func Pack[K comparable](k K) Key {
	var (
		key Key
		ok  bool
	)
	switch p := any(&k).(type) {
	case *serde.Void:
		return Key{}
	case *int:
		key, ok = tuple(kindInt, []int{*p})
	case *serde.Int1:
		key, ok = tuple(kindInt1, p[:])
	case *serde.Int2:
		key, ok = tuple(kindInt2, p[:])
	case *serde.Int3:
		key, ok = tuple(kindInt3, p[:])
	case *serde.Int4:
		key, ok = tuple(kindInt4, p[:])
	case *serde.Int5:
		key, ok = tuple(kindInt5, p[:])
	}
	if ok {
		return key
	}
	return KeyOf(k)
}

// Unpack returns the application value of k as a K; it panics, as a type
// assertion does, when k holds another type.
func Unpack[K comparable](k Key) (v K) {
	if k.x == nil {
		switch p := any(&v).(type) {
		case *serde.Void:
			if k.kind == kindVoid {
				return v
			}
		case *int:
			if k.kind == kindInt {
				*p = int(k.c[0])
				return v
			}
		case *serde.Int1:
			if k.kind == kindInt1 {
				unpackInts(p[:], &k)
				return v
			}
		case *serde.Int2:
			if k.kind == kindInt2 {
				unpackInts(p[:], &k)
				return v
			}
		case *serde.Int3:
			if k.kind == kindInt3 {
				unpackInts(p[:], &k)
				return v
			}
		case *serde.Int4:
			if k.kind == kindInt4 {
				unpackInts(p[:], &k)
				return v
			}
		case *serde.Int5:
			if k.kind == kindInt5 {
				unpackInts(p[:], &k)
				return v
			}
		}
	}
	return k.Value().(K)
}

func unpackInts(dst []int, k *Key) {
	for i := range dst {
		dst[i] = int(k.c[i])
	}
}

// Value returns the application value k was packed from.
func (k Key) Value() any {
	c := &k.c
	switch k.kind {
	case kindVoid:
		return serde.Void{}
	case kindInt:
		return int(c[0])
	case kindInt1:
		return serde.Int1{int(c[0])}
	case kindInt2:
		return serde.Int2{int(c[0]), int(c[1])}
	case kindInt3:
		return serde.Int3{int(c[0]), int(c[1]), int(c[2])}
	case kindInt4:
		return serde.Int4{int(c[0]), int(c[1]), int(c[2]), int(c[3])}
	case kindInt5:
		return serde.Int5{int(c[0]), int(c[1]), int(c[2]), int(c[3]), int(c[4])}
	}
	return k.x.v
}

// String formats k exactly as fmt.Sprint formats its application value.
func (k Key) String() string {
	switch k.kind {
	case kindVoid:
		return "{}"
	case kindInt:
		return strconv.Itoa(int(k.c[0]))
	case kindInterned:
		return fmt.Sprint(k.x.v)
	}
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < k.kind.arity(); i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.Itoa(int(k.c[i])))
	}
	b.WriteByte(']')
	return b.String()
}

// splitmix64 finalizer: cheap, well-mixed, good enough to spread
// sequential tuple IDs across shards.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

const hashSeed = 0x9e3779b97f4a7c15

// hash is the task-ID hash: the same value taskHashAny gives the key's
// application value, computed from the packed coordinates.
func (k Key) hash() uint64 {
	switch k.kind {
	case kindVoid:
		return mix64(hashSeed)
	case kindInterned:
		return k.x.hash
	}
	h := uint64(hashSeed)
	for i := 0; i < k.kind.arity(); i++ {
		h = mix64(h ^ uint64(int64(k.c[i])))
	}
	return h
}

// HashKey hashes a task ID; the default keymap uses it. The result is a
// pure function of the key's value, so it is identical on every rank.
func HashKey(key Key) int {
	return int(key.hash() & 0x7fffffff)
}

// taskHashAny hashes a key value. The tuple IDs (serde.Int1..Int5, int)
// and strings hash inline without serialization; anything else falls back
// to hashing its serde encoding with a pooled buffer. Packed keys compute
// the same value from their coordinates (Key.hash).
func taskHashAny(key any) uint64 {
	switch k := key.(type) {
	case serde.Int1:
		return hashInts(k[:])
	case serde.Int2:
		return hashInts(k[:])
	case serde.Int3:
		return hashInts(k[:])
	case serde.Int4:
		return hashInts(k[:])
	case serde.Int5:
		return hashInts(k[:])
	case int:
		return mix64(uint64(k) ^ hashSeed)
	case int64:
		return mix64(uint64(k) ^ hashSeed)
	case int32:
		return mix64(uint64(k) ^ hashSeed)
	case uint64:
		return mix64(k ^ hashSeed)
	case string:
		return fnv64(k)
	case serde.Void, struct{}:
		return mix64(hashSeed)
	default:
		return taskHashSlow(key)
	}
}

func hashInts(c []int) uint64 {
	h := uint64(hashSeed)
	for _, x := range c {
		h = mix64(h ^ uint64(x))
	}
	return h
}

// fnv64 is an inline FNV-1a over a string (no hash.Hash allocation).
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// taskHashSlow hashes an arbitrary registered key type through its serde
// encoding. The encode buffer is pooled, so even this path does not
// allocate at steady state.
func taskHashSlow(key any) uint64 {
	b := serde.GetBuffer(16)
	serde.EncodeAny(b, key)
	h := uint64(14695981039346656037)
	for _, c := range b.Bytes() {
		h ^= uint64(c)
		h *= 1099511628211
	}
	b.Release()
	return h
}

// kindTag is the serde wire tag of each packed kind's application type: a
// packed key encodes exactly as serde.EncodeAny encodes its value (tag,
// then one varint per coordinate) without a registry lookup.
var kindTag [numPacked]uint32

func init() {
	for kind := kindVoid; kind < numPacked; kind++ {
		kindTag[kind] = serde.WireTagOf(Key{kind: kind}.Value())
	}
}

// encodeKey appends k's wire form.
func encodeKey(b *serde.Buffer, k Key) {
	if k.x != nil {
		serde.EncodeAny(b, k.x.v)
		return
	}
	b.PutUvarint(uint64(kindTag[k.kind]))
	for i := 0; i < k.kind.arity(); i++ {
		b.PutVarint(int64(k.c[i]))
	}
}

// keyWireSize returns the length encodeKey writes.
func keyWireSize(k Key) int {
	if k.x != nil {
		return serde.WireSizeAny(k.x.v)
	}
	n := serde.UvarintLen(uint64(kindTag[k.kind]))
	for i := 0; i < k.kind.arity(); i++ {
		n += serde.VarintLen(int64(k.c[i]))
	}
	return n
}

// decodeKey reads one key written by encodeKey. Callers turn its panics
// into a corrupt-header report.
func decodeKey(b *serde.Buffer) Key {
	tag := uint32(b.Uvarint())
	for kind := kindVoid; kind < numPacked; kind++ {
		if kindTag[kind] != tag {
			continue
		}
		var c [5]int
		for i := 0; i < kind.arity(); i++ {
			c[i] = int(b.Varint())
		}
		if k, ok := tuple(kind, c[:kind.arity()]); ok {
			return k
		}
		// A coordinate past int32: the sender interned it; so does this rank.
		return orphan(Key{kind: kind}.withInts(c))
	}
	v, ok := serde.DecodeTag(b, tag)
	if !ok {
		panic(fmt.Sprintf("unknown key tag %d", tag))
	}
	if t := reflect.TypeOf(v); !t.Comparable() {
		panic(fmt.Sprintf("key tag %d decodes to non-comparable %v", tag, t))
	}
	return KeyOf(v)
}

// withInts returns the application value of kind k with full-width
// coordinates c (the out-of-range decode path).
func (k Key) withInts(c [5]int) any {
	switch k.kind {
	case kindInt:
		return c[0]
	case kindInt1:
		return serde.Int1{c[0]}
	case kindInt2:
		return serde.Int2{c[0], c[1]}
	case kindInt3:
		return serde.Int3{c[0], c[1], c[2]}
	case kindInt4:
		return serde.Int4{c[0], c[1], c[2], c[3]}
	}
	return serde.Int5(c)
}
