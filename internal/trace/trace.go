// Package trace holds the always-on per-rank event counters: tasks run,
// messages and bytes moved, data copies made, and protocol choices. A
// Collector cell is the only storage an event increments — on traced and
// untraced runs alike — except for the scheduler's counts, which sched.Pool
// keeps per worker and backend.Proc.Stats folds into the Snapshot. Every
// export of a count (the CLIs' stats line, obs.Session reports, /metrics)
// reads a Snapshot through the one name table below; the obs registry
// keeps no counters of its own.
package trace

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
)

// Collector accumulates counters for one rank. All methods are safe for
// concurrent use.
type Collector struct {
	TasksExecuted    atomic.Int64
	MsgsSent         atomic.Int64
	MsgsReceived     atomic.Int64
	BytesSent        atomic.Int64
	BytesReceived    atomic.Int64
	DataCopies       atomic.Int64 // deep copies made for copy-on-send
	CopiesAvoided    atomic.Int64 // borrows/moves that skipped a copy
	BytesCopied      atomic.Int64 // payload bytes of the deep copies (the simulator charges them as memcpy time)
	SplitMDTransfers atomic.Int64 // payloads sent via the splitmd protocol
	BcastsForwarded  atomic.Int64 // tree-broadcast forwards performed
	WirePackets      atomic.Int64 // physical fabric packets: one per counted message
	CoalescedMsgs    atomic.Int64 // always 0: retained for the frozen bench/ harness, whose coalesce.msgs_per_packet reads 0 until a benchmark PR drops that row

	// Hierarchical-reduction counters (core/reduce.go). MatchOps counts
	// match-table shard-lock trips — the contention metric the local
	// pre-reduction ablation is judged on; RemoteReducerMsgs counts the
	// point-to-point baseline (a remote data delivery landing on a
	// streaming terminal) that the reduce tree replaces.
	MatchOps           atomic.Int64 // match-table shard lock acquisitions
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

// counters is the one name table. Adding a counter is a Collector field, a
// Snapshot field and a row here; every export follows. A name is an obs
// constant exactly when some code reads that counter back by name. Rows
// are in Snapshot.String order. A nil c stands for no collector (walking a
// Snapshot alone).
func counters(c *Collector, s *Snapshot) []counter {
	if c == nil {
		c = new(Collector)
	}
	return []counter{
		{"core.tasks_executed", "tasks=%d", &c.TasksExecuted, &s.TasksExecuted},
		{"net.msgs_sent", " msgs=%d", &c.MsgsSent, &s.MsgsSent},
		{"net.msgs_received", "/%d", &c.MsgsReceived, &s.MsgsReceived},
		{"net.bytes_sent", " bytes=%d", &c.BytesSent, &s.BytesSent},
		{"net.bytes_received", "/%d", &c.BytesReceived, &s.BytesReceived},
		{"net.wire_packets", " pkts=%d", &c.WirePackets, &s.WirePackets},
		{"net.coalesced_msgs", "", &c.CoalescedMsgs, &s.CoalescedMsgs},
		{obs.CounterDataCopies, " copies=%d", &c.DataCopies, &s.DataCopies},
		{obs.CounterCopiesAvoided, " avoided=%d", &c.CopiesAvoided, &s.CopiesAvoided},
		{"core.bytes_copied", "", &c.BytesCopied, &s.BytesCopied},
		{"net.rendezvous_sends", " splitmd=%d", &c.SplitMDTransfers, &s.SplitMDTransfers},
		{"bcast.forwards", " bcast-fwd=%d", &c.BcastsForwarded, &s.BcastsForwarded},
		{obs.CounterSteals, " stolen=%d", nil, &s.TasksStolen},
		{"core.match_ops", " matchops=%d", &c.MatchOps, &s.MatchOps},
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

// Snapshot captures the current counter values.
func (c *Collector) Snapshot() Snapshot {
	var s Snapshot
	for _, r := range counters(c, &s) {
		if r.live != nil {
			*r.snap = r.live.Load()
		}
	}
	return s
}

// Add returns the element-wise sum of two snapshots, used to aggregate
// across ranks.
func (s Snapshot) Add(o Snapshot) Snapshot {
	sum := counters(nil, &s)
	for i, r := range counters(nil, &o) {
		*sum[i].snap += *r.snap
	}
	return s
}

// Each calls emit with every counter's exported name and value; it is what
// the obs registry's read-through walks.
func (s Snapshot) Each(emit func(name string, v int64)) {
	for _, r := range counters(nil, &s) {
		emit(r.name, *r.snap)
	}
}

func (s Snapshot) String() string {
	var b strings.Builder
	for _, r := range counters(nil, &s) {
		if r.text != "" {
			fmt.Fprintf(&b, r.text, *r.snap)
		}
	}
	return b.String()
}
