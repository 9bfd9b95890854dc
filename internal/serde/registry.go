package serde

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
)

// Protocol identifies which serialization mechanism a type's codec uses:
// trivial (memcpy-like) or the archive protocol (§II-C). Splitmd is not a
// codec property: types opt in with RegisterSplitMD.
type Protocol uint8

const (
	// ProtoArchive serializes the whole object through a compact archive
	// (the Boost.Serialization analog).
	ProtoArchive Protocol = iota
	// ProtoTrivial marks fixed-size POD-like types whose encoding is a
	// direct byte image.
	ProtoTrivial
)

func (p Protocol) String() string {
	switch p {
	case ProtoArchive:
		return "archive"
	case ProtoTrivial:
		return "trivial"
	}
	return fmt.Sprintf("protocol(%d)", uint8(p))
}

// Codec serializes values of one concrete Go type. Implementations must be
// safe for concurrent use.
type Codec interface {
	// Encode appends the wire representation of v.
	Encode(b *Buffer, v any)
	// Decode reads one value.
	Decode(b *Buffer) any
	// WireSize returns the exact or closely-estimated encoded size in
	// bytes; cost models use it for communication-time estimates.
	WireSize(v any) int
	// Clone deep-copies v. Copy-on-send semantics use it for local
	// consumers.
	Clone(v any) any
	// Protocol reports the type's preferred serialization protocol.
	Protocol() Protocol
}

type entry struct {
	tag   uint32
	typ   reflect.Type
	codec Codec
	// shareable marks pointer-free value types: a boxed value of such a
	// type is immutable through the interface (any access type-asserts a
	// copy out), so "deep copy" is the identity and CloneAny can hand the
	// same box to every local consumer.
	shareable bool
}

// shareableType reports whether a value of t boxed in an interface can be
// shared instead of deep-copied: every reachable byte must live inside the
// box (no pointers, slices, maps, funcs, or channels). Strings qualify
// because Go strings are immutable.
func shareableType(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128,
		reflect.String:
		return true
	case reflect.Array:
		return shareableType(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !shareableType(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

var (
	regMu   sync.RWMutex
	byType  = map[reflect.Type]*entry{}
	byTag   = map[uint32]*entry{}
	nextTag uint32
)

// RegisterType installs a codec for the dynamic type of the zero sample.
// Registration assigns a stable wire tag; since every rank of the virtual
// cluster shares the process, tags agree across ranks (as symbol-identical
// binaries do under MPI). Re-registering a type replaces its codec but
// keeps its tag.
func RegisterType(sample any, c Codec) {
	regMu.Lock()
	defer regMu.Unlock()
	t := reflect.TypeOf(sample)
	if t == nil {
		panic("serde: cannot register nil interface")
	}
	if e, ok := byType[t]; ok {
		e.codec = c
		return
	}
	e := &entry{tag: nextTag, typ: t, codec: c, shareable: shareableType(t)}
	nextTag++
	byType[t] = e
	byTag[e.tag] = e
}

// ErrUnregistered reports a serde operation on a value whose dynamic type
// has no registered codec. Hot-path entry points (EncodeAny, CloneAny,
// LookupCached) panic with it rather than returning an error — an
// unregistered type on a terminal edge is a wiring bug, not a runtime
// condition — but callers that want to probe can recover a typed value
// with the offending type name, or use TryLookupCached.
type ErrUnregistered struct {
	// Type is the Go name of the unregistered dynamic type.
	Type string
}

func (e *ErrUnregistered) Error() string {
	return "serde: type " + e.Type + " is not registered"
}

// lookupType returns the registry entry for v's dynamic type.
func lookupType(v any) *entry {
	regMu.RLock()
	e := byType[reflect.TypeOf(v)]
	regMu.RUnlock()
	if e == nil {
		panic(&ErrUnregistered{Type: fmt.Sprintf("%T", v)})
	}
	return e
}

// Cached is a devirtualized snapshot of one registry entry, the per-edge
// codec cache behind steady-state sends. The value type of a terminal
// edge is fixed after its first send, so the edge captures the lookup
// once and every later send validates with a single reflect.TypeOf
// pointer compare (For) instead of the RWMutex-guarded map hit in
// lookupType. The snapshot pins the codec installed at lookup time;
// re-registration (test-only) is picked up by the next cold lookup.
type Cached struct {
	typ       reflect.Type
	codec     Codec
	gather    Gatherer // non-nil iff codec implements the gather extension
	tag       uint32
	shareable bool
}

func newCached(e *entry) *Cached {
	c := &Cached{typ: e.typ, codec: e.codec, tag: e.tag, shareable: e.shareable}
	c.gather, _ = e.codec.(Gatherer)
	return c
}

// LookupCached resolves v's dynamic type once for reuse across sends;
// panics with *ErrUnregistered when no codec is installed.
func LookupCached(v any) *Cached { return newCached(lookupType(v)) }

// TryLookupCached is LookupCached without the panic: it returns a typed
// *ErrUnregistered for unknown types.
func TryLookupCached(v any) (*Cached, error) {
	regMu.RLock()
	e := byType[reflect.TypeOf(v)]
	regMu.RUnlock()
	if e == nil {
		return nil, &ErrUnregistered{Type: fmt.Sprintf("%T", v)}
	}
	return newCached(e), nil
}

// For reports whether c was resolved for v's dynamic type — the cheap
// validity check before using a cached codec on a send path.
func (c *Cached) For(v any) bool { return reflect.TypeOf(v) == c.typ }

// Tag returns the wire tag of the cached type.
func (c *Cached) Tag() uint32 { return c.tag }

// EncodeAny writes the tagged value body, equivalent to the package-level
// EncodeAny but without the registry lookup.
func (c *Cached) EncodeAny(b *Buffer, v any) {
	b.PutUvarint(uint64(c.tag))
	c.codec.Encode(b, v)
}

// WireSizeAny returns the tagged encoded size, mirroring WireSizeAny.
func (c *Cached) WireSizeAny(v any) int {
	return UvarintLen(uint64(c.tag)) + c.codec.WireSize(v)
}

// Clone deep-copies v with the same shareable fast path as CloneAny.
func (c *Cached) Clone(v any) any {
	if c.shareable {
		return v
	}
	return c.codec.Clone(v)
}

// Shareable reports whether the cached type is a pointer-free value type,
// i.e. whether Clone returns the same (immutable) box rather than a deep
// copy. Callers that derive ownership from cloning branch on this.
func (c *Cached) Shareable() bool { return c.shareable }

// Gatherer returns the codec's gather extension, if it has one.
func (c *Cached) Gatherer() (Gatherer, bool) { return c.gather, c.gather != nil }

// Registered reports whether v's dynamic type has a codec.
func Registered(v any) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := byType[reflect.TypeOf(v)]
	return ok
}

// EncodeAny writes a tagged value: the wire tag followed by the value body.
func EncodeAny(b *Buffer, v any) {
	e := lookupType(v)
	b.PutUvarint(uint64(e.tag))
	e.codec.Encode(b, v)
}

// DecodeAny reads a tagged value written by EncodeAny.
func DecodeAny(b *Buffer) any {
	tag := uint32(b.Uvarint())
	v, ok := DecodeTag(b, tag)
	if !ok {
		panic(fmt.Sprintf("serde: unknown wire tag %d", tag))
	}
	return v
}

// DecodeTag reads the body of a tagged value whose tag the caller has
// already read; ok is false, and nothing is read, for an unknown tag.
func DecodeTag(b *Buffer, tag uint32) (v any, ok bool) {
	regMu.RLock()
	e := byTag[tag]
	regMu.RUnlock()
	if e == nil {
		return nil, false
	}
	return e.codec.Decode(b), true
}

// WireSizeAny returns the encoded size of a tagged value, including the tag.
func WireSizeAny(v any) int {
	e := lookupType(v)
	return UvarintLen(uint64(e.tag)) + e.codec.WireSize(v)
}

// SharedFast reports whether v is one of the hottest builtin value types,
// whose interface boxes are immutable and therefore shareable without a
// registry lookup (mirroring the fast paths of core's task-ID hash).
// CloneAny and the per-edge cached clone path short-circuit on it.
func SharedFast(v any) bool {
	switch v.(type) {
	case int, int32, int64, uint64, float64, bool, string, Void,
		Int1, Int2, Int3, Int4, Int5:
		return true
	}
	return false
}

// CloneAny deep-copies v through its codec. Pointer-free value types skip
// the codec: their boxes are immutable, so sharing is a correct deep copy.
func CloneAny(v any) any {
	if SharedFast(v) {
		return v
	}
	e := lookupType(v)
	if e.shareable {
		return v
	}
	return e.codec.Clone(v)
}

// WireTagOf returns the wire tag assigned to v's dynamic type.
func WireTagOf(v any) uint32 { return lookupType(v).tag }

// RegisteredTypes returns the names of all registered types in tag order;
// used by diagnostics and tests.
func RegisteredTypes() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	tags := make([]int, 0, len(byTag))
	for t := range byTag {
		tags = append(tags, int(t))
	}
	sort.Ints(tags)
	out := make([]string, 0, len(tags))
	for _, t := range tags {
		out = append(out, byTag[uint32(t)].typ.String())
	}
	return out
}

// UvarintLen returns the encoded size of PutUvarint(v).
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
