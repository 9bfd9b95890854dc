// Package obs is the unified runtime observability layer: a low-overhead
// structured event stream plus a metrics registry, shared by every backend
// (the real PaRSEC-model and MADNESS-model engines and the virtual-time
// simulator's timeline export). The paper's whole assessment (§III) is an
// observability exercise — it explains performance via scheduler behavior,
// communication volume, and copy counts — and this package gives the
// reproduction the same instruments: task-lifecycle events (message
// enqueue/deliver, terminal match, activate, exec start/end, send,
// broadcast, steal, reducer fold, fence) and log₂-bucketed histograms,
// with Chrome-trace/Perfetto export and an offline analyzer (per-template
// profiles, observed critical path, per-rank peak ready backlog).
//
// Each kind of value has one home. Counters are not stored here: events
// are counted once, in the always-on per-rank trace.Collector (and the
// scheduler's per-worker atomics); a Registry only reads them, by name,
// each time it snapshots, through the source the backend registers with
// ReadCounters — so a report and /metrics show the same numbers as an
// untraced run's stats line, live. Distributions live in the Registry's
// histograms. Levels (pending shells, queue depths, detector activity)
// are kept once, in the structures that hold them; live.Collector reads
// them there on a scrape, and no copy of a level moves on the hot path.
//
// Recording is lock-free on the hot path: each rank owns a fixed-capacity
// event buffer claimed by an atomic cursor; a full buffer drops (and
// counts) further events rather than blocking or reallocating. Disabled
// tracing costs exactly one nil-check branch at every instrumentation
// point — instrumented code holds a Recorder interface that is nil when
// observation is off.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind labels one task-lifecycle event.
type EventKind uint8

const (
	// EvMsgEnqueue: a wire message left this rank (Bytes = wire size).
	EvMsgEnqueue EventKind = iota + 1
	// EvMsgDeliver: a wire message was received (Bytes = wire size).
	EvMsgDeliver
	// EvTerminalMatch: a value landed on an input-terminal instance.
	EvTerminalMatch
	// EvReduceFold: a streaming terminal folded a message into its
	// accumulator.
	EvReduceFold
	// EvTaskActivate: all input terminals matched; the task became ready.
	EvTaskActivate
	// EvExecStart: a worker began executing a task body.
	EvExecStart
	// EvExecEnd: the task body returned (Dur = wall time in ns).
	EvExecEnd
	// EvSend: a task emitted a value to one remote rank.
	EvSend
	// EvBroadcast: a task emitted one value to several ranks.
	EvBroadcast
	// EvSteal: an idle worker stole a task from a victim's deque
	// (Bytes = victim worker index).
	EvSteal
	// EvFence: a fence completed on this rank (Dur = wait in ns).
	EvFence
	// EvFlowEmit: a remote data delivery left this rank carrying causal
	// span context (Flow = the per-delivery flow id, Bytes = destination
	// rank). Pairs with exactly one EvFlowRecv on the receiver.
	EvFlowEmit
	// EvFlowRecv: a data delivery carrying flow context was injected into
	// this rank's graph (Flow = the sender's flow id).
	EvFlowRecv
)

func (k EventKind) String() string {
	switch k {
	case EvMsgEnqueue:
		return "msg-enqueue"
	case EvMsgDeliver:
		return "msg-deliver"
	case EvTerminalMatch:
		return "terminal-match"
	case EvReduceFold:
		return "reduce-fold"
	case EvTaskActivate:
		return "task-activate"
	case EvExecStart:
		return "exec-start"
	case EvExecEnd:
		return "exec-end"
	case EvSend:
		return "send"
	case EvBroadcast:
		return "broadcast"
	case EvSteal:
		return "steal"
	case EvFence:
		return "fence"
	case EvFlowEmit:
		return "flow-emit"
	case EvFlowRecv:
		return "flow-recv"
	}
	return "unknown"
}

// Event is one structured lifecycle record. Fields are populated on a
// per-kind basis; unused fields are zero.
type Event struct {
	Kind   EventKind
	Rank   int32
	Worker int32  // executing worker, or -1
	TT     int32  // template-task registration index, or -1
	TS     int64  // ns since the session epoch (stamped by Record when 0)
	Dur    int64  // ns; EvExecEnd / EvFence
	Bytes  int64  // wire or payload size; message events
	Flow   uint64 // cross-rank causal span id; EvFlowEmit / EvFlowRecv
	Name   string
	Key    string // formatted task ID; exec events
}

// Recorder receives events and owns a metrics registry. Instrumented code
// holds a possibly-nil Recorder and must guard every use with a nil check;
// that single branch is the entire cost of disabled observation.
type Recorder interface {
	// Record stores one event. When ev.TS is zero it is stamped with the
	// recorder's clock. Safe for concurrent use; never blocks.
	Record(ev Event)
	// Now returns ns since the session epoch.
	Now() int64
	// Metrics returns the rank's registry of histograms (and the
	// read-through to the rank's counters).
	Metrics() *Registry
}

// Standard metric names used by the built-in instrumentation. The Counter
// names are the rows of internal/trace's name table that some code reads
// back by name (Report.String, bench/); the table holds the rest. The
// Gauge names label the levels /metrics reads at each scrape, from a
// live.Collector or (the process-wide two) from the exporter itself.
const (
	// HistTaskLatency is the task-body wall time in ns.
	HistTaskLatency = "task.latency_ns"
	// HistMatchDelay is activate→exec-start delay in ns.
	HistMatchDelay = "task.match_delay_ns"
	// HistMsgBytes is the wire size of sent messages.
	HistMsgBytes = "msg.bytes"
	// CounterSteals counts successful deque steals.
	CounterSteals = "sched.steals"
	// CounterStealAttempts counts steal sweeps started by out-of-work
	// workers (hit rate = sched.steals / sched.steal_attempts).
	CounterStealAttempts = "sched.steal_attempts"
	// CounterInlined counts tasks executed through a worker's run-next
	// slot, bypassing the queues entirely.
	CounterInlined = "sched.inlined"
	// HistInlineChain is the length of completed run-next chains (how many
	// successors a worker executed back to back without a queue trip).
	HistInlineChain = "sched.inline_chain"
	// CounterParks counts workers blocking in the park protocol.
	CounterParks = "sched.parks"
	// CounterWakes counts wake permits granted to parked workers.
	CounterWakes = "sched.wakes"
	// GaugeParkedWorkers tracks workers currently announced idle (sampled
	// by the live exporter).
	GaugeParkedWorkers = "sched.parked_workers"
	// CounterDataCopies counts deep copies of in-flight values (clones made
	// for copy semantics, CoW materialization, or remote snapshots).
	CounterDataCopies = "data.copies"
	// CounterCopiesAvoided counts deliveries satisfied without a deep copy
	// (shared read-only references, in-place takes, ownership moves).
	CounterCopiesAvoided = "data.copies_avoided"
	// GaugePendingShells tracks partially matched task shells held in the
	// match table (created but not yet activated).
	GaugePendingShells = "core.pending_shells"
	// GaugeDequeDepth tracks the summed depth of a rank's work-stealing
	// deques and shared queue (sampled by the live exporter).
	GaugeDequeDepth = "sched.deque_depth"
	// GaugeTrackedValues tracks live refcounted value handles owned by one
	// rank's data tracker.
	GaugeTrackedValues = "data.tracked_live"
	// GaugeTermdetActive is the termination detector's local activity level.
	GaugeTermdetActive = "termdet.active"
	// CounterReduceLocalFolds counts contributions folded into local
	// combiner slots instead of taking a match-table trip (reduce.go).
	CounterReduceLocalFolds = "reduce.local_folds"
	// CounterReduceHops counts partial accumulators received and re-folded
	// at interior ranks of the reduce tree.
	CounterReduceHops = "reduce.tree_hops"
	// CounterReduceDeliveries counts partial accumulators received at the
	// owning rank — the arrivals the tree exists to bound.
	CounterReduceDeliveries = "reduce.deliveries"
	// CounterReduceBytesSaved counts owner-inbound bytes avoided: payload
	// folded into an already-parked remote-bound partial, so it reaches
	// the owner inside one combined delivery instead of as its own.
	CounterReduceBytesSaved = "reduce.bytes_saved"
	// GaugePendingReductions tracks combiner slots holding unflushed
	// partial accumulations (nonzero after a fence means lost input).
	GaugePendingReductions = "reduce.pending_partials"
	// CounterGatherSends counts remote data deliveries that took the
	// zero-copy gather path: header encoded, payload shipped as
	// by-reference segments.
	CounterGatherSends = "serde.gather_sends"
	// CounterCopySends counts remote data deliveries that flattened the
	// payload through the copy-encode path (the gather path's baseline).
	CounterCopySends = "serde.copy_sends"
	// CounterViewDecodes counts receives decoded as views aliasing the
	// arrived payload memory instead of copying out of it.
	CounterViewDecodes = "serde.view_decodes"
	// CounterBytesZeroCopied counts payload bytes that crossed the wire by
	// reference (gather sends), i.e. bytes spared the encode+decode pair.
	CounterBytesZeroCopied = "serde.bytes_zero_copied"
	// GaugeRecvViews tracks live receive views: scatter-decoded values
	// still aliasing pooled receive buffers (process-global; nonzero after
	// a fence means a view leak pinning pool memory).
	GaugeRecvViews = "serde.recv_views"

	// Per-peer link metrics of a real-network fabric endpoint (netfab),
	// labeled {rank, peer} in the OpenMetrics exposition.

	// CounterFabricTxBytes counts bytes written to one peer's socket.
	CounterFabricTxBytes = "fabric.tx_bytes"
	// CounterFabricRxBytes counts bytes landed from one peer's socket.
	CounterFabricRxBytes = "fabric.rx_bytes"
	// CounterFabricTxFrames counts frames written to one peer.
	CounterFabricTxFrames = "fabric.tx_frames"
	// CounterFabricRxFrames counts frames landed from one peer.
	CounterFabricRxFrames = "fabric.rx_frames"
	// CounterFabricWritevSegs counts iovec segments handed to vectored
	// writes — segments that crossed pool -> socket without flattening.
	CounterFabricWritevSegs = "fabric.writev_segs"
	// CounterFabricWritevCalls counts vectored write batches (the segs /
	// calls ratio is the achieved write aggregation).
	CounterFabricWritevCalls = "fabric.writev_calls"
	// GaugeFabricQueuedBytes tracks bytes queued on one peer's socket
	// writer but not yet written — the backpressure level.
	GaugeFabricQueuedBytes = "fabric.queued_bytes"
)

// Config sizes a Session.
type Config struct {
	// Capacity is the per-rank event-buffer length. Zero means the
	// default (1<<17 events ≈ 11 MB/rank); recording stops (and counts
	// drops) when a rank's buffer fills.
	Capacity int
}

// DefaultCapacity is the per-rank event-buffer length when Config.Capacity
// is zero.
const DefaultCapacity = 1 << 17

// Session owns the recorders of one observed run: one Rank per
// participating rank.
// Create it before the run, pass it to the backend configuration, and read
// events/metrics after the run quiesces.
type Session struct {
	cfg   Config
	epoch time.Time

	mu    sync.Mutex
	ranks map[int]*Rank

	// reportMu serializes full Report generation (which scans the event
	// buffers) so concurrent Report calls never race with each other.
	reportMu sync.Mutex
}

// NewSession creates an observation session; the epoch (event time zero)
// is the moment of creation.
func NewSession(cfg Config) *Session {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	return &Session{cfg: cfg, epoch: time.Now(), ranks: map[int]*Rank{}}
}

// Rank returns (creating on first use) rank r's recorder.
func (s *Session) Rank(r int) *Rank {
	s.mu.Lock()
	defer s.mu.Unlock()
	rk := s.ranks[r]
	if rk == nil {
		rk = &Rank{rank: int32(r), epoch: s.epoch, buf: make([]Event, s.cfg.Capacity)}
		s.ranks[r] = rk
	}
	return rk
}

// Dropped returns the total events discarded because rank buffers filled.
func (s *Session) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, rk := range s.ranks {
		n += rk.dropped.Load()
	}
	return n
}

// Events returns every recorded event merged across ranks in timestamp
// order. Call only after the observed run has quiesced (post-Fence); it is
// not synchronized against concurrent Record calls.
func (s *Session) Events() []Event {
	s.mu.Lock()
	ranks := make([]*Rank, 0, len(s.ranks))
	for _, rk := range s.ranks {
		ranks = append(ranks, rk)
	}
	s.mu.Unlock()
	var out []Event
	for _, rk := range ranks {
		out = append(out, rk.Events()...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// LiveReport is a metrics-only snapshot of a running session. Unlike
// Report, it never touches the event buffers, so it is safe to call
// concurrently with Record — this is what the live /metrics endpoint
// must serve while the run is still in flight.
type LiveReport struct {
	Ranks   int
	Dropped int64
	// PerRank holds each rank's own registry snapshot.
	PerRank map[int]RegistrySnapshot
}

// LiveReport captures the session's metrics without scanning event
// buffers. Safe for concurrent use with Record and with Report.
func (s *Session) LiveReport() *LiveReport {
	s.mu.Lock()
	ranks := make(map[int]*Rank, len(s.ranks))
	for r, rk := range s.ranks {
		ranks[r] = rk
	}
	s.mu.Unlock()
	lr := &LiveReport{
		Ranks:   len(ranks),
		PerRank: make(map[int]RegistrySnapshot, len(ranks)),
	}
	for r, rk := range ranks {
		lr.Dropped += rk.dropped.Load()
		lr.PerRank[r] = rk.reg.Snapshot()
	}
	return lr
}

// Rank is one rank's lock-free event recorder. The zero value is not
// usable; obtain instances from Session.Rank.
type Rank struct {
	rank    int32
	epoch   time.Time
	buf     []Event
	next    atomic.Int64
	dropped atomic.Int64
	reg     Registry
}

var _ Recorder = (*Rank)(nil)

// Record implements Recorder. Each call claims a distinct buffer slot with
// one atomic add, so concurrent recorders never contend on a lock; when
// the buffer is exhausted the event is dropped and counted.
func (r *Rank) Record(ev Event) {
	idx := r.next.Add(1) - 1
	if idx >= int64(len(r.buf)) {
		r.dropped.Add(1)
		return
	}
	if ev.TS == 0 {
		ev.TS = int64(time.Since(r.epoch))
	}
	ev.Rank = r.rank
	r.buf[idx] = ev
}

// Now implements Recorder.
func (r *Rank) Now() int64 { return int64(time.Since(r.epoch)) }

// Metrics implements Recorder.
func (r *Rank) Metrics() *Registry { return &r.reg }

// Dropped returns how many events this rank discarded.
func (r *Rank) Dropped() int64 { return r.dropped.Load() }

// Events returns the recorded events in recording order. Call after the
// run quiesces.
func (r *Rank) Events() []Event {
	n := r.next.Load()
	if n > int64(len(r.buf)) {
		n = int64(len(r.buf))
	}
	out := make([]Event, n)
	copy(out, r.buf[:n])
	return out
}
