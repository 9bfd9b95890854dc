// Package trace holds the always-on per-rank event counters: tasks run,
// messages and bytes moved, data copies made, and protocol choices. A
// Collector cell is the only storage an event increments — on traced and
// untraced runs alike — except for the scheduler's counts, which sched.Pool
// keeps per worker and backend.Proc.Stats folds into the Snapshot. The
// counters a local task bumps (TaskCells) have one padded copy per pool
// worker besides the Collector's own, so a task's path writes no word that
// another worker writes; every read sums the copies. Every export of a
// count (the CLIs' stats line, obs.Session reports, /metrics) reads a
// Snapshot through the one name table below; the obs registry keeps no
// counters of its own.
package trace

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
)

// TaskCells are the counters a local task's path bumps: its execution,
// its deliveries' match trips and the copies they made or avoided.
type TaskCells struct {
	TasksExecuted atomic.Int64
	MatchOps      atomic.Int64 // match-table shard lock acquisitions and dense-slot joins
	CopiesAvoided atomic.Int64 // borrows/moves that skipped a copy
	DataCopies    atomic.Int64 // deep copies made for copy-on-send
	BytesCopied   atomic.Int64 // payload bytes of the deep copies (the simulator charges them as memcpy time)
}

// workerCells is one worker's copy of the TaskCells, alone on its cache
// line.
type workerCells struct {
	TaskCells
	_ [24]byte // pad to 64 bytes
}

// Collector accumulates counters for one rank. All methods but SizeWorkers
// are safe for concurrent use.
type Collector struct {
	// TaskCells is the shared copy: what writers on no pool worker bump,
	// and every writer when SizeWorkers has not run (the simulator, test
	// executors), so a zero Collector counts in these cells alone.
	TaskCells
	workers []workerCells

	MsgsSent         atomic.Int64
	MsgsReceived     atomic.Int64
	BytesSent        atomic.Int64
	BytesReceived    atomic.Int64
	SplitMDTransfers atomic.Int64 // payloads sent via the splitmd protocol
	BcastsForwarded  atomic.Int64 // tree-broadcast forwards performed
	WirePackets      atomic.Int64 // physical fabric packets: one per counted message
	CoalescedMsgs    atomic.Int64 // always 0: retained for the frozen bench/ harness, whose coalesce.msgs_per_packet reads 0 until a benchmark PR drops that row

	// Hierarchical-reduction counters (core/reduce.go). RemoteReducerMsgs
	// counts the point-to-point baseline (a remote data delivery landing
	// on a streaming terminal) that the reduce tree replaces.
	ReduceLocalFolds   atomic.Int64 // contributions folded into combiner slots
	ReducePartialsSent atomic.Int64 // partial accumulators sent up the reduce tree
	ReduceHops         atomic.Int64 // partials received and re-folded at interior tree ranks
	ReduceDeliveries   atomic.Int64 // partials received at the owning (root) rank
	RemoteReducerMsgs  atomic.Int64 // point-to-point remote deliveries onto streaming terminals
	ReduceBytesSaved   atomic.Int64 // owner-inbound bytes avoided: payload merged into a parked remote-bound partial

	// Zero-copy wire-path counters (backend gather/scatter sends). A
	// remote data delivery takes exactly one of the gather or copy paths;
	// BytesZeroCopied is the payload bytes the gather sends moved by
	// reference (bytes spared one encode and one decode memcpy).
	GatherSends     atomic.Int64 // deliveries shipped as header + by-reference segments
	CopySends       atomic.Int64 // deliveries flattened through copy-encode
	ViewDecodes     atomic.Int64 // receives decoded as views over arrived payload memory
	BytesZeroCopied atomic.Int64 // payload bytes that crossed by reference
}

// SizeWorkers gives the collector one TaskCells copy per pool worker. Call
// it before any counting or reading starts.
func (c *Collector) SizeWorkers(n int) { c.workers = make([]workerCells, n) }

// For returns the TaskCells that worker bumps: its own copy, or the shared
// one for a writer on no worker (−1) or a collector sized for none. Only
// the worker itself may use its copy; readers sum through Snapshot.
func (c *Collector) For(worker int) *TaskCells {
	if uint(worker) < uint(len(c.workers)) {
		return &c.workers[worker].TaskCells
	}
	return &c.TaskCells
}

// Workers returns how many per-worker TaskCells copies SizeWorkers made.
func (c *Collector) Workers() int { return len(c.workers) }

// Tasks returns the tasks executed, summed over every copy.
func (c *Collector) Tasks() int64 {
	n := c.TasksExecuted.Load()
	for i := range c.workers {
		n += c.workers[i].TasksExecuted.Load()
	}
	return n
}

// Snapshot is an immutable copy of one rank's counters (or, after Add, of
// several ranks' sums).
type Snapshot struct {
	TasksExecuted    int64
	MsgsSent         int64
	MsgsReceived     int64
	BytesSent        int64
	BytesReceived    int64
	DataCopies       int64
	CopiesAvoided    int64
	BytesCopied      int64
	SplitMDTransfers int64
	BcastsForwarded  int64
	WirePackets      int64
	CoalescedMsgs    int64

	MatchOps           int64
	ReduceLocalFolds   int64
	ReducePartialsSent int64
	ReduceHops         int64
	ReduceDeliveries   int64
	RemoteReducerMsgs  int64
	ReduceBytesSaved   int64

	GatherSends     int64
	CopySends       int64
	ViewDecodes     int64
	BytesZeroCopied int64

	// Scheduler counts. They have no Collector cell: sched.Pool keeps them
	// per worker and backend.Proc.Stats fills them in, so a bare
	// Collector.Snapshot (the simulator, a test executor) leaves them 0.
	TasksStolen   int64 // steal sweeps that found an item
	StealAttempts int64 // steal sweeps started by out-of-work workers
	InlineRuns    int64 // tasks executed through a worker's run-next slot
	Parks         int64 // times a worker blocked in the park protocol
	Wakes         int64 // wake permits granted to parked workers
}

// counter is one row of the name table: where a count lives in a Collector
// and in a Snapshot, and what it is called on the way out.
type counter struct {
	name string        // exported metric name: obs reports, /metrics
	text string        // its piece of Snapshot.String; "" leaves it out
	live *atomic.Int64 // the Collector cell; nil for the scheduler counts
	snap *int64
}

// counters is the one name table. Adding a counter is a Collector (or
// TaskCells) field, a Snapshot field and a row here; every export follows.
// A name is an obs constant exactly when some code reads that counter back
// by name. Rows are in Snapshot.String order. The per-task rows point into
// tc, one copy of the TaskCells; the rest into c. A nil c stands for no
// collector (walking a Snapshot alone).
func counters(c *Collector, tc *TaskCells, s *Snapshot) []counter {
	if c == nil {
		c = new(Collector)
		tc = &c.TaskCells
	}
	return []counter{
		{"core.tasks_executed", "tasks=%d", &tc.TasksExecuted, &s.TasksExecuted},
		{"net.msgs_sent", " msgs=%d", &c.MsgsSent, &s.MsgsSent},
		{"net.msgs_received", "/%d", &c.MsgsReceived, &s.MsgsReceived},
		{"net.bytes_sent", " bytes=%d", &c.BytesSent, &s.BytesSent},
		{"net.bytes_received", "/%d", &c.BytesReceived, &s.BytesReceived},
		{"net.wire_packets", " pkts=%d", &c.WirePackets, &s.WirePackets},
		{"net.coalesced_msgs", "", &c.CoalescedMsgs, &s.CoalescedMsgs},
		{obs.CounterDataCopies, " copies=%d", &tc.DataCopies, &s.DataCopies},
		{obs.CounterCopiesAvoided, " avoided=%d", &tc.CopiesAvoided, &s.CopiesAvoided},
		{"core.bytes_copied", "", &tc.BytesCopied, &s.BytesCopied},
		{"net.rendezvous_sends", " splitmd=%d", &c.SplitMDTransfers, &s.SplitMDTransfers},
		{"bcast.forwards", " bcast-fwd=%d", &c.BcastsForwarded, &s.BcastsForwarded},
		{obs.CounterSteals, " stolen=%d", nil, &s.TasksStolen},
		{"core.match_ops", " matchops=%d", &tc.MatchOps, &s.MatchOps},
		{obs.CounterReduceLocalFolds, " folds=%d", &c.ReduceLocalFolds, &s.ReduceLocalFolds},
		{"reduce.partials_sent", " partials=%d", &c.ReducePartialsSent, &s.ReducePartialsSent},
		{obs.CounterReduceHops, " hops=%d", &c.ReduceHops, &s.ReduceHops},
		{obs.CounterReduceDeliveries, " rdeliv=%d", &c.ReduceDeliveries, &s.ReduceDeliveries},
		{"reduce.remote_ptp_msgs", " rptp=%d", &c.RemoteReducerMsgs, &s.RemoteReducerMsgs},
		{obs.CounterReduceBytesSaved, " rbytes-saved=%d", &c.ReduceBytesSaved, &s.ReduceBytesSaved},
		{obs.CounterGatherSends, " gather=%d", &c.GatherSends, &s.GatherSends},
		{obs.CounterCopySends, " copysend=%d", &c.CopySends, &s.CopySends},
		{obs.CounterViewDecodes, " views=%d", &c.ViewDecodes, &s.ViewDecodes},
		{obs.CounterBytesZeroCopied, " zerocopied=%d", &c.BytesZeroCopied, &s.BytesZeroCopied},
		{obs.CounterStealAttempts, " steal-att=%d", nil, &s.StealAttempts},
		{obs.CounterInlined, " inlined=%d", nil, &s.InlineRuns},
		{obs.CounterParks, " parks=%d", nil, &s.Parks},
		{obs.CounterWakes, " wakes=%d", nil, &s.Wakes},
	}
}

// Snapshot captures the current counter values, each per-task counter
// summed over the shared copy and every worker's.
func (c *Collector) Snapshot() Snapshot {
	var s Snapshot
	shared := counters(c, &c.TaskCells, &s)
	for _, r := range shared {
		if r.live != nil {
			*r.snap = r.live.Load()
		}
	}
	for i := range c.workers {
		// The rows that moved with the TaskCells copy are the per-task ones.
		for j, r := range counters(c, &c.workers[i].TaskCells, &s) {
			if r.live != shared[j].live {
				*r.snap += r.live.Load()
			}
		}
	}
	return s
}

// Add returns the element-wise sum of two snapshots, used to aggregate
// across ranks.
func (s Snapshot) Add(o Snapshot) Snapshot {
	sum := counters(nil, nil, &s)
	for i, r := range counters(nil, nil, &o) {
		*sum[i].snap += *r.snap
	}
	return s
}

// Each calls emit with every counter's exported name and value; it is what
// the obs registry's read-through walks.
func (s Snapshot) Each(emit func(name string, v int64)) {
	for _, r := range counters(nil, nil, &s) {
		emit(r.name, *r.snap)
	}
}

func (s Snapshot) String() string {
	var b strings.Builder
	for _, r := range counters(nil, nil, &s) {
		if r.text != "" {
			fmt.Fprintf(&b, r.text, *r.snap)
		}
	}
	return b.String()
}
