// Package trace collects per-rank execution statistics: tasks run, messages
// and bytes moved, data copies made, and protocol choices. The counters back
// the copy-avoidance and broadcast-optimization ablations and give the
// benchmark harness its "communication volume" columns.
package trace

import (
	"fmt"
	"sync/atomic"
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
	SplitMDTransfers atomic.Int64 // payloads moved via the splitmd protocol
	ArchiveTransfers atomic.Int64 // payloads moved via whole-object archives
	BcastsForwarded  atomic.Int64 // tree-broadcast forwards performed
	TasksStolen      atomic.Int64
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

	// LoopbackDeliveries counts Deliver calls whose destination was the
	// local rank (lopsided keymaps); they short-circuit to local matching
	// with wire-equivalent copy semantics instead of touching the fabric.
	LoopbackDeliveries atomic.Int64
}

// Snapshot is an immutable copy of a Collector's counters.
type Snapshot struct {
	TasksExecuted    int64
	MsgsSent         int64
	MsgsReceived     int64
	BytesSent        int64
	BytesReceived    int64
	DataCopies       int64
	CopiesAvoided    int64
	SplitMDTransfers int64
	ArchiveTransfers int64
	BcastsForwarded  int64
	TasksStolen      int64
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

	LoopbackDeliveries int64
}

// Snapshot captures the current counter values.
func (c *Collector) Snapshot() Snapshot {
	return Snapshot{
		TasksExecuted:    c.TasksExecuted.Load(),
		MsgsSent:         c.MsgsSent.Load(),
		MsgsReceived:     c.MsgsReceived.Load(),
		BytesSent:        c.BytesSent.Load(),
		BytesReceived:    c.BytesReceived.Load(),
		DataCopies:       c.DataCopies.Load(),
		CopiesAvoided:    c.CopiesAvoided.Load(),
		SplitMDTransfers: c.SplitMDTransfers.Load(),
		ArchiveTransfers: c.ArchiveTransfers.Load(),
		BcastsForwarded:  c.BcastsForwarded.Load(),
		TasksStolen:      c.TasksStolen.Load(),
		WirePackets:      c.WirePackets.Load(),
		CoalescedMsgs:    c.CoalescedMsgs.Load(),

		MatchOps:           c.MatchOps.Load(),
		ReduceLocalFolds:   c.ReduceLocalFolds.Load(),
		ReducePartialsSent: c.ReducePartialsSent.Load(),
		ReduceHops:         c.ReduceHops.Load(),
		ReduceDeliveries:   c.ReduceDeliveries.Load(),
		RemoteReducerMsgs:  c.RemoteReducerMsgs.Load(),
		ReduceBytesSaved:   c.ReduceBytesSaved.Load(),

		GatherSends:     c.GatherSends.Load(),
		CopySends:       c.CopySends.Load(),
		ViewDecodes:     c.ViewDecodes.Load(),
		BytesZeroCopied: c.BytesZeroCopied.Load(),

		LoopbackDeliveries: c.LoopbackDeliveries.Load(),
	}
}

// Add returns the element-wise sum of two snapshots, used to aggregate
// across ranks.
func (s Snapshot) Add(o Snapshot) Snapshot {
	return Snapshot{
		TasksExecuted:    s.TasksExecuted + o.TasksExecuted,
		MsgsSent:         s.MsgsSent + o.MsgsSent,
		MsgsReceived:     s.MsgsReceived + o.MsgsReceived,
		BytesSent:        s.BytesSent + o.BytesSent,
		BytesReceived:    s.BytesReceived + o.BytesReceived,
		DataCopies:       s.DataCopies + o.DataCopies,
		CopiesAvoided:    s.CopiesAvoided + o.CopiesAvoided,
		SplitMDTransfers: s.SplitMDTransfers + o.SplitMDTransfers,
		ArchiveTransfers: s.ArchiveTransfers + o.ArchiveTransfers,
		BcastsForwarded:  s.BcastsForwarded + o.BcastsForwarded,
		TasksStolen:      s.TasksStolen + o.TasksStolen,
		WirePackets:      s.WirePackets + o.WirePackets,
		CoalescedMsgs:    s.CoalescedMsgs + o.CoalescedMsgs,

		MatchOps:           s.MatchOps + o.MatchOps,
		ReduceLocalFolds:   s.ReduceLocalFolds + o.ReduceLocalFolds,
		ReducePartialsSent: s.ReducePartialsSent + o.ReducePartialsSent,
		ReduceHops:         s.ReduceHops + o.ReduceHops,
		ReduceDeliveries:   s.ReduceDeliveries + o.ReduceDeliveries,
		RemoteReducerMsgs:  s.RemoteReducerMsgs + o.RemoteReducerMsgs,
		ReduceBytesSaved:   s.ReduceBytesSaved + o.ReduceBytesSaved,

		GatherSends:     s.GatherSends + o.GatherSends,
		CopySends:       s.CopySends + o.CopySends,
		ViewDecodes:     s.ViewDecodes + o.ViewDecodes,
		BytesZeroCopied: s.BytesZeroCopied + o.BytesZeroCopied,

		LoopbackDeliveries: s.LoopbackDeliveries + o.LoopbackDeliveries,
	}
}

func (s Snapshot) String() string {
	return fmt.Sprintf(
		"tasks=%d msgs=%d/%d bytes=%d/%d pkts=%d copies=%d avoided=%d splitmd=%d archive=%d bcast-fwd=%d stolen=%d matchops=%d folds=%d partials=%d hops=%d rdeliv=%d rptp=%d rbytes-saved=%d gather=%d copysend=%d views=%d zerocopied=%d",
		s.TasksExecuted, s.MsgsSent, s.MsgsReceived, s.BytesSent, s.BytesReceived,
		s.WirePackets,
		s.DataCopies, s.CopiesAvoided, s.SplitMDTransfers, s.ArchiveTransfers,
		s.BcastsForwarded, s.TasksStolen,
		s.MatchOps, s.ReduceLocalFolds, s.ReducePartialsSent, s.ReduceHops,
		s.ReduceDeliveries, s.RemoteReducerMsgs, s.ReduceBytesSaved,
		s.GatherSends, s.CopySends, s.ViewDecodes, s.BytesZeroCopied)
}
