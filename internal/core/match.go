package core

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Sharded task matching. Every send funnels through its TT's matching
// table to pair (task ID, value) messages with the accumulating shell for
// that ID; with one mutex per TT (the seed design) every concurrent send
// to the same template serializes even when the task IDs differ. The
// table is instead split into power-of-two shards selected by a cheap
// task-ID hash: sends to different IDs almost always hit different shards
// and proceed in parallel, and each shard keeps free lists of retired
// shells and tasks so steady-state matching allocates nothing.

// matchShardBits caps the shard count; shardCount picks the real value
// from GOMAXPROCS at TT construction.
const (
	minMatchShards = 8
	maxMatchShards = 256
)

// shardCount is the shard-count heuristic: 4× the processor count (so
// that even an adversarial key distribution leaves most lock acquisitions
// uncontended), rounded up to a power of two and clamped to [8, 256].
func shardCount() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < minMatchShards {
		n = minMatchShards
	}
	if n > maxMatchShards {
		n = maxMatchShards
	}
	// Round up to a power of two so shard selection is a mask, not a mod.
	return 1 << bits.Len(uint(n-1))
}

// matchShard is one stripe of a TT's matching table. The padding keeps
// each shard's mutex on its own cache line(s) so that shards locked by
// different workers do not false-share.
type matchShard struct {
	mu    sync.Mutex
	table shellTable
	free  *shell // retired shells for reuse, linked by shell.next
	tasks *Task  // retired tasks for reuse, linked by Task.next
	_     [72]byte
}

// matchTable is the sharded shell table of one TT.
type matchTable struct {
	shards []matchShard
	mask   uint64
	// live mirrors the total shell count across shards so diagnostics (the
	// graph doctor, live gauges, PendingShells) can read it without
	// sweeping shard locks.
	live atomic.Int64
}

func (m *matchTable) init() {
	n := shardCount()
	m.shards = make([]matchShard, n)
	m.mask = uint64(n - 1)
}

// shard selects the stripe for a task-ID hash (Key.hash). It takes the low
// bits; shellTable indexes with the high ones.
func (m *matchTable) shard(h uint64) *matchShard {
	return &m.shards[h&m.mask]
}

// shellTable is one shard's task ID → waiting shell index, built for that
// one job: open addressing with linear probing, at most 3/4 full, and
// backward-shift deletion, so there are no tombstones. The key lives in
// the shell; a slot holds the key's hash beside the shell pointer, so a
// probe compares 8 bytes before it touches a shell. Every key of a shard
// shares the low hash bits that chose the shard, so the slot index is
// taken from the high 32. The table only grows; it dies with its graph.
type shellTable struct {
	slots []shellSlot // power-of-two length; sh == nil marks an empty slot
	n     int
}

type shellSlot struct {
	hash uint64
	sh   *shell
}

// minTableSlots is a table's size at its first insert.
const minTableSlots = 8

func (t *shellTable) home(h uint64) int { return int(h>>32) & (len(t.slots) - 1) }

// find returns key's shell, or nil and the index of the empty slot where
// insert must put it. It grows the table first when one more entry would
// pass 3/4 load, so find-or-insert is one probe sequence and the returned
// slot stays valid for the insert.
func (t *shellTable) find(key Key, h uint64) (*shell, int) {
	if t.n >= len(t.slots)-len(t.slots)/4 {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(h); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.sh == nil {
			return nil, i
		}
		if s.hash == h && s.sh.key == key {
			return s.sh, i
		}
	}
}

// insert fills the empty slot i that find returned for a shell's key hash.
func (t *shellTable) insert(i int, h uint64, sh *shell) {
	t.slots[i] = shellSlot{hash: h, sh: sh}
	t.n++
}

// remove deletes sh, whose key hashes to h. Entries after it in the probe
// run shift back into the hole unless that would move one before its home
// slot, which leaves every remaining entry reachable from its home.
func (t *shellTable) remove(sh *shell, h uint64) {
	mask := len(t.slots) - 1
	i := t.home(h)
	for t.slots[i].sh != sh {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.slots[j].sh != nil; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].hash))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = shellSlot{}
	t.n--
}

// grow doubles the slot array and re-homes every entry.
func (t *shellTable) grow() {
	old := t.slots
	t.slots = make([]shellSlot, max(2*len(old), minTableSlots))
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.sh == nil {
			continue
		}
		i := t.home(s.hash)
		for t.slots[i].sh != nil {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// shellState is a point-in-time copy of one pending shell's fill state,
// taken under its shard lock. Classification (which inputs are missing,
// who should have sent them) happens after the lock is released.
type shellState struct {
	key       Key
	satisfied uint64
	counts    []int
	targets   []int
}

// collect copies the fill state of up to max pending shells (all of them
// when max <= 0), locking one shard at a time.
func (m *matchTable) collect(max int) []shellState {
	var out []shellState
	for i := range m.shards {
		sp := &m.shards[i]
		sp.mu.Lock()
		for _, s := range sp.table.slots {
			if s.sh == nil {
				continue
			}
			if max > 0 && len(out) >= max {
				sp.mu.Unlock()
				return out
			}
			sh := s.sh
			st := shellState{key: sh.key, satisfied: sh.satisfied}
			if x := sh.ext; x != nil {
				st.counts = append([]int(nil), x.counts...)
				st.targets = append([]int(nil), x.targets...)
			}
			out = append(out, st)
		}
		sp.mu.Unlock()
	}
	return out
}

// shell accumulates the inputs of one task instance until all terminals
// are satisfied. It is as small as a waiting task instance can be, because
// a wide graph keeps many of them waiting at once (a Cholesky's GEMM
// shells run to the hundreds of thousands): the inputs of the first four
// terminals sit inline, and the TT's other terminals and its stream
// bookkeeping live in ext, which only TTs that need them allocate. The
// Task that runs the body is taken when the shell completes; the shell
// goes straight back to its shard's free list.
type shell struct {
	key       Key // the task ID; a table slot holds only its hash
	in        [inlineInputs]any
	satisfied uint64
	ext       *shellExt
	next      *shell // free-list link (owned by shard)
}

// inlineInputs is the number of terminals whose inputs a shell (and a
// Task) holds inline.
const inlineInputs = 4

// shellExt is the part of a shell only some TTs need.
type shellExt struct {
	more    []any // inputs of terminals inlineInputs and up
	counts  []int // stream messages folded per terminal
	targets []int // expected stream size per terminal; -1 unknown
}

// input returns the slot of terminal i's input.
func (sh *shell) input(i int) *any {
	if i < inlineInputs {
		return &sh.in[i]
	}
	return &sh.ext.more[i-inlineInputs]
}

// newShell allocates a shell shaped for tt.
func (tt *TT) newShell() *shell {
	sh := &shell{}
	n := len(tt.inputs)
	if n > inlineInputs || tt.streaming {
		x := &shellExt{}
		if n > inlineInputs {
			x.more = make([]any, n-inlineInputs)
		}
		if tt.streaming {
			x.counts = make([]int, n)
			x.targets = make([]int, n)
		}
		sh.ext = x
	}
	return sh
}

// scrub clears a completed shell for reuse. Its stream targets belong to
// the previous key and are recomputed when the shell is taken again.
func (sh *shell) scrub() {
	sh.key = Key{}
	sh.in = [inlineInputs]any{}
	sh.satisfied = 0
	if x := sh.ext; x != nil {
		clear(x.more)
		clear(x.counts)
	}
}

// takeTask pops a retired task of sp's TT, or allocates one with room for
// n inputs. Callers hold sp.mu.
func (sp *matchShard) takeTask(n int) *Task {
	if t := sp.tasks; t != nil {
		sp.tasks = t.next
		t.next = nil
		return t
	}
	t := &Task{home: sp}
	if n <= inlineInputs {
		t.Inputs = t.in[:n:n]
	} else {
		t.Inputs = make([]any, n)
	}
	return t
}

// release scrubs a task that came from a shard and returns it to that
// shard's free list. Called from Task.Execute after the body has run; the
// task must not be touched afterwards.
func (t *Task) release() {
	clear(t.Inputs)
	t.Key = Key{}
	t.activatedNs = 0
	t.holds = t.holds[:0]
	t.ctx = TaskContext{}
	sp := t.home
	sp.mu.Lock()
	t.next = sp.tasks
	sp.tasks = t
	sp.mu.Unlock()
}
