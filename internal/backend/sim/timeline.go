package sim

import (
	"sort"

	"repro/internal/obs"
)

// Timeline records per-task execution spans of a virtual-time run for
// visualization. Export with ChromeJSON and load the result into any
// chrome://tracing / Perfetto viewer: one process row per virtual rank,
// one thread lane per concurrently busy worker.
type Timeline struct {
	spans []Span
	// Causal flow points: sends keyed by flow id, receives in arrival
	// order. Only the drain goroutine writes, matching spans.
	flowSends map[uint64]flowPoint
	flowRecvs []flowEnd
}

// flowPoint is one endpoint of a causal message arrow.
type flowPoint struct {
	rank int
	ts   float64 // virtual seconds
}

type flowEnd struct {
	id uint64
	flowPoint
}

// Span is one task execution in virtual time.
type Span struct {
	// Name is the template task name ("GEMM", "TRSM", ...).
	Name string
	// Rank is the executing virtual node.
	Rank int
	// Start and Dur are in virtual seconds.
	Start, Dur float64
}

// EnableTimeline starts span recording; call before Run. Returns the
// timeline that will be filled. Recording large runs costs memory
// proportional to the task count.
func (rt *Runtime) EnableTimeline() *Timeline {
	rt.timeline = &Timeline{}
	return rt.timeline
}

func (rt *Runtime) recordSpan(name string, rank int, start, dur float64) {
	if rt.timeline == nil {
		return
	}
	rt.timeline.spans = append(rt.timeline.spans, Span{
		Name: name, Rank: rank, Start: start, Dur: dur,
	})
}

// Spans returns the recorded spans in recording order.
func (tl *Timeline) Spans() []Span { return tl.spans }

func (tl *Timeline) flowSend(id uint64, rank int, ts float64) {
	if tl.flowSends == nil {
		tl.flowSends = map[uint64]flowPoint{}
	}
	tl.flowSends[id] = flowPoint{rank: rank, ts: ts}
}

func (tl *Timeline) flowRecv(id uint64, rank int, ts float64) {
	tl.flowRecvs = append(tl.flowRecvs, flowEnd{id: id, flowPoint: flowPoint{rank: rank, ts: ts}})
}

// Flows returns the paired causal arrows (send matched to receive);
// unmatched endpoints — a message still in flight at export — are dropped.
func (tl *Timeline) Flows() []obs.ChromeFlow {
	var out []obs.ChromeFlow
	for _, re := range tl.flowRecvs {
		se, ok := tl.flowSends[re.id]
		if !ok {
			continue
		}
		out = append(out, obs.ChromeFlow{
			Name: "msg", ID: re.id,
			SrcPid: se.rank, SrcTid: 0, SrcTS: se.ts * 1e6,
			DstPid: re.rank, DstTid: 0, DstTS: re.ts * 1e6,
		})
	}
	return out
}

// ChromeJSON renders the timeline in the Chrome trace-event format via the
// shared obs writer (the same schema real-backend session exports use).
// Lanes (thread ids) are assigned by greedy interval partitioning per
// rank, so overlapping tasks land on distinct rows.
func (tl *Timeline) ChromeJSON() string {
	order := make([]int, len(tl.spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return tl.spans[order[a]].Start < tl.spans[order[b]].Start
	})
	// Greedy lane assignment: reuse the first lane whose previous span has
	// ended.
	laneEnds := map[int][]float64{}
	lanes := make([]int, len(tl.spans))
	for _, idx := range order {
		s := tl.spans[idx]
		ends := laneEnds[s.Rank]
		lane := -1
		for l, end := range ends {
			if end <= s.Start+1e-15 {
				lane = l
				break
			}
		}
		if lane < 0 {
			lane = len(ends)
			ends = append(ends, 0)
		}
		ends[lane] = s.Start + s.Dur
		laneEnds[s.Rank] = ends
		lanes[idx] = lane
	}
	spans := make([]obs.ChromeSpan, len(tl.spans))
	for i, s := range tl.spans {
		spans[i] = obs.ChromeSpan{
			Name: s.Name, Pid: s.Rank, Tid: lanes[i],
			TS: s.Start * 1e6, Dur: s.Dur * 1e6,
		}
	}
	return obs.ChromeJSONFull(spans, nil, tl.Flows())
}
