package sched

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Policy selects the queueing discipline of a worker pool. There are two
// modules, one per runtime model of the paper's §II-D, and the backend
// preset (backend.PaRSEC / backend.MADNESS) picks between them; it is not
// a user-facing knob.
type Policy int

const (
	// PolicyFIFO runs tasks in submission order from one shared queue,
	// ignoring priorities (the MADNESS-model thread pool).
	PolicyFIFO Policy = iota
	// PolicyStealPrio gives each worker a small fixed set of
	// per-priority-band Chase-Lev deques (pow2 priority classes, highest
	// band popped and stolen first) plus a run-next slot, with a shared
	// Banded queue for outside submissions, so priority-map ordering
	// survives without a shared heap (the PaRSEC-model scheduler).
	// Ordering is approximate: exact up to the band mapping locally,
	// best-effort across workers.
	PolicyStealPrio
)

func (p Policy) String() string {
	switch p {
	case PolicyFIFO:
		return "fifo"
	case PolicyStealPrio:
		return "stealprio"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// maxInlineChain bounds how many successors a worker may execute back to
// back through its run-next slot without returning to the queues. The
// bound keeps one long dependency chain from monopolizing a worker while
// queued (possibly higher-priority) work sits in its deques; chained tasks
// still Activate/Deactivate through termination detection individually,
// and a worker with a filled slot counts as busy, so the bound is a
// fairness knob, not a correctness requirement.
const maxInlineChain = 64

// parkSpinRounds is how many times an out-of-work worker re-sweeps every
// queue (yielding between sweeps) before it announces intent to sleep.
const parkSpinRounds = 4

// workerState is the per-worker scheduling state, cache-line padded so one
// worker's slot and counters never false-share with a neighbor's.
//
// The run-next slot (it/ok/chain) is owner-only: it is filled by
// SubmitLocal*, which the runtime only invokes synchronously from the run
// callback of that same worker, and drained by the worker's execute loop.
// No atomics guard it — the race detector enforces the contract.
type workerState struct {
	it    Item
	ok    bool
	chain int // inline-chain depth of the currently running task

	// Owner-written stat counters (atomic only so Stats can read them
	// from other goroutines; writes are uncontended).
	stealAttempts atomic.Int64
	stealHits     atomic.Int64
	inlineRuns    atomic.Int64
	parks         atomic.Int64

	_ [24]byte // pad to a multiple of 64 bytes
}

// Stats is a point-in-time snapshot of scheduler-internal counters, always
// on (cheap uncontended atomics) and the only count of these events: stall
// reports embed it, backend.Proc.Stats folds it into the trace.Snapshot.
type Stats struct {
	StealAttempts int64 // steal sweeps started by out-of-work workers
	StealHits     int64 // sweeps that found an item
	InlineRuns    int64 // tasks executed via the run-next slot
	Parks         int64 // times a worker blocked in cond.Wait
	Wakes         int64 // wake permits granted to parked workers
	Parked        int   // workers currently announced idle
	Workers       int
}

// String renders the fingerprint in the shape stall reports embed.
func (s Stats) String() string {
	hit := "-"
	if s.StealAttempts > 0 {
		hit = fmt.Sprintf("%.0f%%", 100*float64(s.StealHits)/float64(s.StealAttempts))
	}
	return fmt.Sprintf("parked=%d/%d steal-hit=%s (%d/%d) inlined=%d parks=%d wakes=%d",
		s.Parked, s.Workers, hit, s.StealHits, s.StealAttempts,
		s.InlineRuns, s.Parks, s.Wakes)
}

// Pool is a fixed-size worker pool executing Items via a run callback. The
// callback receives the executing worker's index so that tasks spawned
// during execution can be resubmitted locally (SubmitLocal) for locality
// under PolicyStealPrio.
type Pool struct {
	run    func(worker int, it Item)
	shared Queue      // the FIFO queue; the Banded outside-submission queue under PolicyStealPrio
	prio   [][]*Deque // per-worker per-band; nil under PolicyFIFO
	ws     []workerState
	inline bool // run-next slot enabled (PolicyStealPrio only)

	mu      sync.Mutex
	cond    *sync.Cond
	done    bool
	wg      sync.WaitGroup
	started bool
	n       int

	// Park/wake protocol: idlers counts workers that have announced
	// intent to sleep (between the announce and leaving the park loop);
	// submissions fast-path out without touching the lock while it is
	// zero. permits (guarded by mu) are wake credits — a parked worker
	// consumes one instead of waiting, so a Signal that fires before the
	// worker reaches cond.Wait is never lost.
	idlers  atomic.Int32
	permits int
	wakes   atomic.Int64

	// Idle notification: busy counts workers not blocked in the park
	// loop; when it reaches zero with no queued work, idle (if set) runs
	// once per busy→quiescent transition. Backends hook the draining of
	// state no single task owns here (parked reduction partials); a
	// task's sends go out as it makes them, never at quiescence.
	busy      int
	idle      func()
	idleFired bool

	// Observability (nil when disabled): the queue-depth gauge moves on
	// every submit/pop, a finished run-next chain feeds its length
	// histogram, a successful steal records an event.
	obs       obs.Recorder
	depth     *obs.Gauge
	chainHist *obs.Histogram

	// onPanic, when set, runs with a panic recovered from the run callback
	// before the panic is re-raised; backends hook crash-dump flushing
	// (export the in-flight obs trace) here. The hook must not panic.
	onPanic func(worker int, recovered any)
}

// NewPool builds a pool of n workers with the given policy, panicking on
// a Policy value that names neither module. Call Start to launch the
// workers.
func NewPool(n int, policy Policy, run func(worker int, it Item)) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{run: run, n: n}
	p.cond = sync.NewCond(&p.mu)
	p.ws = make([]workerState, n)
	switch policy {
	case PolicyFIFO:
		p.shared = NewFIFO()
	case PolicyStealPrio:
		p.shared = NewBanded()
		p.prio = make([][]*Deque, n)
		for i := range p.prio {
			bands := make([]*Deque, numBands)
			for b := range bands {
				bands[b] = NewDeque()
			}
			p.prio[i] = bands
		}
		p.inline = true
	default:
		panic(fmt.Sprintf("sched: unknown policy %v", policy))
	}
	return p
}

// Workers returns the number of worker goroutines.
func (p *Pool) Workers() int { return p.n }

// Observe attaches a recorder; call before Start. The pool then maintains
// the queue-depth gauge and inline-chain histogram and records steal events.
func (p *Pool) Observe(rec obs.Recorder) {
	if rec == nil {
		return
	}
	p.obs = rec
	m := rec.Metrics()
	p.depth = m.Gauge(obs.GaugeQueueDepth)
	p.chainHist = m.Histogram(obs.HistInlineChain)
}

// OnIdle registers f to run each time the pool transitions from busy to
// fully quiescent (every worker out of work and about to sleep). f runs on
// the last worker to go idle, outside the pool lock, at most once per
// quiescent period; new submissions re-arm it. It is for work that belongs
// to no single task: anything a task produced must not wait for it, since a
// rank with a full queue may not quiesce until the run ends. Call before
// Start.
func (p *Pool) OnIdle(f func()) { p.idle = f }

// OnPanic registers f to run when a task body panics on a worker: f
// receives the worker index and the recovered value, and after it returns
// the panic is re-raised (the process still crashes — f's job is to flush
// diagnostics, e.g. the in-flight obs trace, before it does). When no
// hook is set, panics propagate untouched. Call before Start.
func (p *Pool) OnPanic(f func(worker int, recovered any)) { p.onPanic = f }

// Stats snapshots the scheduler-internal counters. Safe from any
// goroutine; values are instantaneous.
func (p *Pool) Stats() Stats {
	s := Stats{Parked: int(p.idlers.Load()), Wakes: p.wakes.Load(), Workers: p.n}
	for i := range p.ws {
		w := &p.ws[i]
		s.StealAttempts += w.stealAttempts.Load()
		s.StealHits += w.stealHits.Load()
		s.InlineRuns += w.inlineRuns.Load()
		s.Parks += w.parks.Load()
	}
	return s
}

// Depths reports the current queue depths: under PolicyStealPrio one
// entry per worker (summed across bands) followed by the shared queue's
// depth; PolicyFIFO reports just the shared depth. An item held
// in a run-next slot is not counted — its worker is mid-execution, so it
// is in-flight rather than queued. Safe to call from any goroutine;
// values are instantaneous and may be stale by the time they are read.
func (p *Pool) Depths() []int {
	out := make([]int, 0, len(p.prio)+1)
	for _, bands := range p.prio {
		n := 0
		for _, d := range bands {
			n += d.Len()
		}
		out = append(out, n)
	}
	return append(out, p.shared.Len())
}

// Start launches the worker goroutines. It is idempotent.
func (p *Pool) Start() {
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return
	}
	p.started = true
	p.busy = p.n
	p.mu.Unlock()
	for i := 0; i < p.n; i++ {
		p.wg.Add(1)
		go p.worker(i)
	}
}

// Submit enqueues work from outside the pool (e.g. the communication
// thread or the rank main).
func (p *Pool) Submit(it Item) {
	if p.depth != nil {
		p.depth.Add(1)
	}
	p.shared.Push(it)
	p.wake()
}

// SubmitBatch enqueues a run of items from outside the pool with one
// queue synchronization and a bounded number of wakeups.
func (p *Pool) SubmitBatch(its []Item) {
	if len(its) == 0 {
		return
	}
	if p.depth != nil {
		p.depth.Add(int64(len(its)))
	}
	p.shared.PushBatch(its)
	p.wakeN(len(its))
}

// SubmitLocal enqueues work from within the run callback of the given
// worker. Under PolicyStealPrio it lands on that worker's own deque for
// the item's priority band — or, when the worker's run-next slot is free
// and its inline chain is short enough, directly in the slot: the worker
// executes it next, no queue round-trip, no wakeup, the just-produced data
// still cache-hot. A lower-priority incumbent is displaced to the queues
// so the slot always holds the highest-priority successor seen this round.
func (p *Pool) SubmitLocal(worker int, it Item) {
	if p.depth != nil {
		p.depth.Add(1)
	}
	if p.inline && worker >= 0 && worker < p.n {
		w := &p.ws[worker]
		if w.chain < maxInlineChain {
			if !w.ok {
				w.ok, w.it = true, it
				return // only this worker can run it: nobody to wake
			}
			if it.Priority > w.it.Priority {
				it, w.it = w.it, it
			}
		}
	}
	p.pushLocal(worker, it)
	p.wake()
}

// SubmitLocalBatch enqueues a run of items discovered by one worker (a
// task fan-out) with a single queue synchronization; the highest-priority
// item may be claimed by the worker's run-next slot as in SubmitLocal.
// The pool may reorder its in place.
func (p *Pool) SubmitLocalBatch(worker int, its []Item) {
	if len(its) == 0 {
		return
	}
	if p.depth != nil {
		p.depth.Add(int64(len(its)))
	}
	if p.inline && worker >= 0 && worker < p.n {
		w := &p.ws[worker]
		if !w.ok && w.chain < maxInlineChain {
			best := 0
			for i := 1; i < len(its); i++ {
				if its[i].Priority > its[best].Priority {
					best = i
				}
			}
			w.ok, w.it = true, its[best]
			its[best] = its[len(its)-1]
			its = its[:len(its)-1]
			if len(its) == 0 {
				return
			}
		}
	}
	if worker >= 0 && worker < len(p.prio) {
		// Push maximal same-band runs in one batch each; fan-outs from one
		// task usually share a priority class, so this is typically one
		// PushBottomBatch call.
		bands := p.prio[worker]
		for i := 0; i < len(its); {
			b := bandOf(its[i].Priority)
			j := i + 1
			for j < len(its) && bandOf(its[j].Priority) == b {
				j++
			}
			bands[b].PushBottomBatch(its[i:j])
			i = j
		}
	} else {
		p.shared.PushBatch(its)
	}
	p.wakeN(len(its))
}

func (p *Pool) pushLocal(worker int, it Item) {
	if worker >= 0 && worker < len(p.prio) {
		p.prio[worker][bandOf(it.Priority)].PushBottom(it)
	} else {
		p.shared.Push(it)
	}
}

// Stop asks workers to exit once and waits for them. Pending work is not
// drained; callers quiesce (fence) before stopping.
func (p *Pool) Stop() {
	p.mu.Lock()
	p.done = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// wake grants one parked worker a wake permit. The fast path — no worker
// has announced intent to sleep — is a single atomic load: steady-state
// submission while all workers are busy touches no lock. The ordering
// argument is the classic two-phase one: the caller's queue push (an
// atomic store or a mutex release, both full barriers here) precedes its
// idlers load, and a parking worker increments idlers before its final
// queue re-check, so either the submitter sees the idler or the idler
// sees the item.
func (p *Pool) wake() {
	if p.idlers.Load() == 0 {
		return
	}
	p.mu.Lock()
	p.idleFired = false
	if p.permits < p.n {
		p.permits++
		p.wakes.Add(1)
	}
	p.mu.Unlock()
	p.cond.Signal()
}

// wakeN wakes up to n parked workers after a batch submission, never
// granting more permits than there are announced idlers.
func (p *Pool) wakeN(n int) {
	idle := int(p.idlers.Load())
	if idle == 0 {
		return
	}
	if n > idle {
		n = idle
	}
	p.mu.Lock()
	p.idleFired = false
	if p.permits+n > p.n {
		n = p.n - p.permits
	}
	p.permits += n
	p.mu.Unlock()
	if n <= 0 {
		return
	}
	p.wakes.Add(int64(n))
	if n >= idle {
		p.cond.Broadcast()
		return
	}
	for ; n > 0; n-- {
		p.cond.Signal()
	}
}

func (p *Pool) worker(id int) {
	defer p.wg.Done()
	rng := rand.New(rand.NewSource(int64(id)*2654435761 + 1))
	for {
		if it, ok := p.tryNext(id, rng); ok {
			p.execute(id, it)
			continue
		}
		if !p.park(id, rng) {
			return
		}
	}
}

// park is the two-phase spin-then-park protocol. Phase one: spin briefly,
// then announce intent to sleep (idlers) and re-check every queue — any
// submission racing with the announcement is either found by the re-check
// or grants a permit. Phase two: block under the lock until a permit
// arrives, firing the idle hook if this is the last worker out. Returns
// false when the pool is stopping.
func (p *Pool) park(id int, rng *rand.Rand) bool {
	for s := 0; s < parkSpinRounds; s++ {
		runtime.Gosched()
		if it, ok := p.tryNext(id, rng); ok {
			p.execute(id, it)
			return true
		}
	}
	p.idlers.Add(1)
	if it, ok := p.tryNext(id, rng); ok {
		p.idlers.Add(-1)
		p.execute(id, it)
		return true
	}
	p.mu.Lock()
	p.busy--
	for {
		if p.done {
			p.mu.Unlock()
			return false
		}
		if p.permits > 0 {
			p.permits--
			break
		}
		// Last worker out with nothing queued: the pool is quiescent;
		// fire the idle hook (once per transition) outside the lock, then
		// re-check — the hook may have triggered remote activity that
		// loops back as work.
		if p.busy == 0 && p.idle != nil && !p.idleFired {
			p.idleFired = true
			f := p.idle
			p.mu.Unlock()
			f()
			p.mu.Lock()
			continue
		}
		p.ws[id].parks.Add(1)
		p.cond.Wait()
	}
	p.busy++
	p.mu.Unlock()
	p.idlers.Add(-1)
	return true
}

// execute runs it and then drains the worker's run-next chain: each
// finished task may have handed its highest-priority same-rank successor
// straight back via SubmitLocal, and the worker runs those back to back
// without touching a queue. The chain depth is tracked in the worker
// state so SubmitLocal stops inlining at maxInlineChain, and the worker
// stays busy for the whole chain, so the idle hook cannot fire while a
// slot is loaded.
func (p *Pool) execute(id int, it Item) {
	if p.depth != nil {
		p.depth.Add(-1)
	}
	w := &p.ws[id]
	w.chain = 0
	p.runItem(id, it)
	if !w.ok {
		return
	}
	chain := 0
	for w.ok {
		next := w.it
		w.ok, w.it = false, Item{}
		chain++
		w.chain = chain
		if p.depth != nil {
			p.depth.Add(-1)
		}
		p.runItem(id, next)
	}
	w.chain = 0
	w.inlineRuns.Add(int64(chain))
	if p.chainHist != nil {
		p.chainHist.Observe(int64(chain))
	}
}

// runItem invokes the run callback, interposing the crash handler when
// one is registered: a panicking task body first flushes diagnostics via
// the hook, then the panic resumes and crashes the process as before.
// With no hook the callback is called directly (zero extra cost).
func (p *Pool) runItem(id int, it Item) {
	if p.onPanic == nil {
		p.run(id, it)
		return
	}
	defer func() {
		if r := recover(); r != nil {
			p.onPanic(id, r)
			panic(r)
		}
	}()
	p.run(id, it)
}

func (p *Pool) tryNext(id int, rng *rand.Rand) (Item, bool) {
	if p.prio == nil {
		return p.shared.Pop()
	}
	// Own bands, highest first. Len is exact for the owner's view of
	// bottom (thieves only shrink it), so empty bands cost two atomic
	// loads, not a PopBottom protocol round.
	own := p.prio[id]
	for b := numBands - 1; b >= 0; b-- {
		if own[b].Len() == 0 {
			continue
		}
		if it, ok := own[b].PopBottom(); ok {
			return it, true
		}
	}
	if it, ok := p.shared.Pop(); ok {
		return it, true
	}
	return p.trySteal(id, rng)
}

// trySteal sweeps the other workers once from a random starting victim,
// taking the highest-band item a victim exposes.
func (p *Pool) trySteal(id int, rng *rand.Rand) (Item, bool) {
	if p.n <= 1 {
		return Item{}, false
	}
	w := &p.ws[id]
	w.stealAttempts.Add(1)
	start := rng.Intn(p.n)
	for k := 0; k < p.n; k++ {
		v := (start + k) % p.n
		if v == id {
			continue
		}
		for b := numBands - 1; b >= 0; b-- {
			d := p.prio[v][b]
			if d.Len() == 0 {
				continue
			}
			if it, ok := d.Steal(); ok {
				w.stealHits.Add(1)
				if p.obs != nil {
					p.obs.Record(obs.Event{Kind: obs.EvSteal, Worker: int32(id),
						TT: -1, Bytes: int64(v)})
				}
				return it, true
			}
		}
	}
	return Item{}, false
}
