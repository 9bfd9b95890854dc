package serde

import (
	"reflect"
	"sync"
)

// SplitMD is implemented by types that opt in to the paper's split-metadata
// protocol (§II-C, Fig. 4): a small metadata record travels eagerly and the
// object's contiguous payload is fetched by remote memory access, with no
// serialization copy. One-sided fetch is a property of the machine being
// modelled, so only a cost model (backend/sim, where SendCaps.SplitMD is
// true) reads this; on the fabrics the engine runs over, the same types
// cross by reference through their gather codec.
type SplitMD interface {
	// PayloadBytes reports the size of the contiguous data segment; the
	// cost model charges this against link bandwidth.
	PayloadBytes() int
}

var (
	splitMu  sync.RWMutex
	splitReg = map[reflect.Type]struct{}{}
)

// RegisterSplitMD opts the dynamic type of sample in to the splitmd cost
// model. The type must already have an ordinary codec registered: that is
// what carries it wherever splitmd is off.
func RegisterSplitMD(sample SplitMD) {
	lookupType(sample) // panics naming the type when it has no codec
	splitMu.Lock()
	defer splitMu.Unlock()
	splitReg[reflect.TypeOf(sample)] = struct{}{}
}

// SplitMDFor returns v as a SplitMD when its dynamic type has opted in.
// This is the runtime analog of the compile-time type-trait test in the
// paper.
func SplitMDFor(v any) (SplitMD, bool) {
	splitMu.RLock()
	_, ok := splitReg[reflect.TypeOf(v)]
	splitMu.RUnlock()
	if !ok {
		return nil, false
	}
	return v.(SplitMD), true
}
