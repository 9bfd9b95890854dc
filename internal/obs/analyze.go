package obs

import (
	"fmt"
	"sort"
	"strings"
)

// TemplateProfile aggregates the execution of one template task across all
// ranks and workers.
type TemplateProfile struct {
	Name    string
	Tasks   int64
	TotalNs int64
	MinNs   int64
	MaxNs   int64
	Latency HistSnapshot // per-task wall time, ns
}

// MeanNs returns the mean task wall time.
func (p TemplateProfile) MeanNs() float64 {
	if p.Tasks == 0 {
		return 0
	}
	return float64(p.TotalNs) / float64(p.Tasks)
}

// CritStep is one task on the observed critical path.
type CritStep struct {
	Name    string
	Key     string
	Rank    int
	StartNs int64
	EndNs   int64
	GapNs   int64 // idle time between the predecessor's end and this start
}

// CritPath is the observed critical path: the chain built backwards from
// the last-finishing task, where each task's predecessor is the
// latest-finishing task (on any rank) that completed at or before the
// task's start. Busy is the summed task time on the chain, Gap the summed
// idle time between chain links; Busy/Makespan bounds the speedup any
// scheduling improvement could deliver without shortening the tasks
// themselves.
type CritPath struct {
	Steps      []CritStep
	BusyNs     int64
	GapNs      int64
	MakespanNs int64
	ByTemplate map[string]int
}

// Report is the offline analysis of one observed run.
type Report struct {
	Events    int
	Ranks     int
	Dropped   int64
	Templates []TemplateProfile
	Msgs      struct {
		Enqueued, Delivered int64
		BytesOut            int64
		Sends, Bcasts       int64
	}
	Matches   int64
	Folds     int64
	Steals    int64
	Fences    int64
	MatchHist HistSnapshot // activate→exec-start delay per task, ns
	// PeakBacklog is each rank's peak ready backlog: the most tasks that
	// were activated on it and had not yet started, at any one time.
	PeakBacklog map[int]int64
	Crit        CritPath
	// Metrics is the merged per-rank registry snapshot.
	Metrics RegistrySnapshot
	// PerRank holds each rank's own registry snapshot, counters and
	// histograms as the rank recorded them.
	PerRank map[int]RegistrySnapshot
}

// Analyze computes a Report from an event stream (Session.Events order:
// ascending TS). Metrics fields are left empty; Session.Report fills them.
// A rank's ready backlog is its activated tasks whose exec start has not
// yet been seen; its peak is taken as the stream is walked.
func Analyze(events []Event) *Report {
	rep := &Report{Events: len(events), PeakBacklog: map[int]int64{}}
	type taskKey struct {
		tt   int32
		rank int32
		key  string
	}
	activated := map[taskKey]int64{}
	// Each template's latency, and the match delay, are observed into one
	// histogram and snapshotted once, after the walk.
	type template struct {
		TemplateProfile
		lat Histogram
	}
	profiles := map[string]*template{}
	var match Histogram
	backlog := map[int]int64{}
	var spans []execSpan

	for _, ev := range events {
		r := int(ev.Rank)
		if _, ok := rep.PeakBacklog[r]; !ok {
			rep.PeakBacklog[r] = 0 // every rank that recorded has a peak
		}
		switch ev.Kind {
		case EvMsgEnqueue:
			rep.Msgs.Enqueued++
			rep.Msgs.BytesOut += ev.Bytes
		case EvMsgDeliver:
			rep.Msgs.Delivered++
		case EvTerminalMatch:
			rep.Matches++
		case EvReduceFold:
			rep.Folds++
		case EvTaskActivate:
			tk := taskKey{ev.TT, ev.Rank, ev.Key}
			if _, ok := activated[tk]; !ok {
				backlog[r]++
				if backlog[r] > rep.PeakBacklog[r] {
					rep.PeakBacklog[r] = backlog[r]
				}
			}
			activated[tk] = ev.TS
		case EvExecStart:
			tk := taskKey{ev.TT, ev.Rank, ev.Key}
			if at, ok := activated[tk]; ok {
				match.Observe(ev.TS - at)
				delete(activated, tk)
				backlog[r]--
			}
		case EvExecEnd:
			p := profiles[ev.Name]
			if p == nil {
				p = &template{TemplateProfile: TemplateProfile{Name: ev.Name, MinNs: ev.Dur}}
				profiles[ev.Name] = p
			}
			p.Tasks++
			p.TotalNs += ev.Dur
			if ev.Dur < p.MinNs {
				p.MinNs = ev.Dur
			}
			if ev.Dur > p.MaxNs {
				p.MaxNs = ev.Dur
			}
			p.lat.Observe(ev.Dur)
			spans = append(spans, execSpan{ev.Name, ev.Key, ev.Rank, ev.TS - ev.Dur, ev.TS})
		case EvSend:
			rep.Msgs.Sends++
		case EvBroadcast:
			rep.Msgs.Bcasts++
		case EvSteal:
			rep.Steals++
		case EvFence:
			rep.Fences++
		}
	}
	rep.Ranks = len(rep.PeakBacklog)
	rep.MatchHist = match.Snapshot()
	for _, p := range profiles {
		p.Latency = p.lat.Snapshot()
		rep.Templates = append(rep.Templates, p.TemplateProfile)
	}
	sort.Slice(rep.Templates, func(i, j int) bool {
		return rep.Templates[i].TotalNs > rep.Templates[j].TotalNs
	})
	rep.Crit = criticalPath(spans)
	return rep
}

// execSpan is one task execution interval reconstructed from EvExecEnd.
type execSpan struct {
	name  string
	key   string
	rank  int32
	start int64
	end   int64
}

// criticalPath chains backwards from the last-finishing span. Predecessor
// selection is the latest-finishing span ending at or before the current
// span's start; ties break toward the same rank (a local dependency is the
// likelier true cause than a coincident remote one). A predecessor comes
// before the current span in end order, so the walk makes progress: a
// zero-duration span ends at its own start but is never its own
// predecessor, and the chain has at most len(spans) steps.
func criticalPath(spans []execSpan) CritPath {
	cp := CritPath{ByTemplate: map[string]int{}}
	if len(spans) == 0 {
		return cp
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].end < spans[j].end })
	var t0 int64 = spans[0].start
	for _, s := range spans {
		if s.start < t0 {
			t0 = s.start
		}
	}
	at := len(spans) - 1
	cur := spans[at]
	cp.MakespanNs = cur.end - t0
	for {
		// Find the latest span before cur ending at or before cur.start.
		lo, hi := 0, at
		for lo < hi {
			mid := (lo + hi) / 2
			if spans[mid].end <= cur.start {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		var pred *execSpan
		if lo > 0 {
			best := lo - 1
			// Prefer a same-rank span among those sharing the latest end.
			for i := best; i >= 0 && spans[i].end == spans[best].end; i-- {
				if spans[i].rank == cur.rank {
					best = i
					break
				}
			}
			pred, at = &spans[best], best
		}
		gap := int64(0)
		if pred != nil {
			gap = cur.start - pred.end
		} else {
			gap = cur.start - t0
		}
		cp.Steps = append(cp.Steps, CritStep{
			Name: cur.name, Key: cur.key, Rank: int(cur.rank),
			StartNs: cur.start, EndNs: cur.end, GapNs: gap,
		})
		cp.BusyNs += cur.end - cur.start
		cp.GapNs += gap
		cp.ByTemplate[cur.name]++
		if pred == nil {
			break
		}
		cur = *pred
	}
	// Reverse into execution order.
	for i, j := 0, len(cp.Steps)-1; i < j; i, j = i+1, j-1 {
		cp.Steps[i], cp.Steps[j] = cp.Steps[j], cp.Steps[i]
	}
	return cp
}

// Report assembles the full analysis for the session: event-stream
// analysis plus the ranks' metric registries, merged and each. Report
// scans the raw event buffers, so it must only run after the observed run
// has quiesced; concurrent Report calls are serialized. For snapshots
// while the run is still recording, use LiveReport instead.
func (s *Session) Report() *Report {
	s.reportMu.Lock()
	defer s.reportMu.Unlock()
	rep := Analyze(s.Events())
	rep.Dropped = s.Dropped()
	rep.PerRank = map[int]RegistrySnapshot{}
	var merged RegistrySnapshot
	s.mu.Lock()
	ranks := make(map[int]*Rank, len(s.ranks))
	for r, rk := range s.ranks {
		ranks[r] = rk
	}
	s.mu.Unlock()
	for r, rk := range ranks {
		snap := rk.reg.Snapshot()
		rep.PerRank[r] = snap
		merged = merged.Merge(snap)
	}
	rep.Metrics = merged
	return rep
}

// ChromeJSON exports the session's event stream as a Chrome trace.
func (s *Session) ChromeJSON() string {
	return ChromeJSONFromEvents(s.Events())
}

// String renders the report as the stats block the CLIs print.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "observability: %d events on %d ranks", r.Events, r.Ranks)
	if r.Dropped > 0 {
		fmt.Fprintf(&b, " (%d dropped: raise the event-buffer capacity)", r.Dropped)
	}
	b.WriteString("\n\nper-template profiles:\n")
	for _, p := range r.Templates {
		fmt.Fprintf(&b, "  %-12s tasks=%-6d total=%-9s mean=%-8s min=%-8s max=%s\n",
			p.Name, p.Tasks, formatNs(p.TotalNs), formatNs(int64(p.MeanNs())),
			formatNs(p.MinNs), formatNs(p.MaxNs))
		fmt.Fprintf(&b, "  %-12s latency %s\n", "", p.Latency)
	}
	if r.MatchHist.Count > 0 {
		fmt.Fprintf(&b, "\nmatch→exec delay: %s\n", r.MatchHist)
	}
	fmt.Fprintf(&b, "\nmessages: enqueued=%d delivered=%d bytes-out=%s sends=%d bcasts=%d\n",
		r.Msgs.Enqueued, r.Msgs.Delivered, formatSI(r.Msgs.BytesOut),
		r.Msgs.Sends, r.Msgs.Bcasts)
	fmt.Fprintf(&b, "matches=%d folds=%d steals=%d fences=%d\n",
		r.Matches, r.Folds, r.Steals, r.Fences)
	// Both sides of the hit ratio come from the counters: r.Steals counts
	// steal events, which stop once a rank's event buffer fills.
	steals := r.Metrics.Counters[CounterSteals]
	attempts := r.Metrics.Counters[CounterStealAttempts]
	inlined := r.Metrics.Counters[CounterInlined]
	parks := r.Metrics.Counters[CounterParks]
	wakes := r.Metrics.Counters[CounterWakes]
	if attempts+inlined+parks+wakes > 0 {
		hit := "-"
		if attempts > 0 {
			hit = fmt.Sprintf("%.0f%%", 100*float64(steals)/float64(attempts))
		}
		fmt.Fprintf(&b, "sched: steal-hit=%s (%d/%d) inlined=%d parks=%d wakes=%d\n",
			hit, steals, attempts, inlined, parks, wakes)
		if hs, ok := r.Metrics.Hists[HistInlineChain]; ok && hs.Count > 0 {
			fmt.Fprintf(&b, "inline chain: %s\n", hs)
		}
	}
	copies := r.Metrics.Counters[CounterDataCopies]
	avoided := r.Metrics.Counters[CounterCopiesAvoided]
	if copies+avoided > 0 {
		fmt.Fprintf(&b, "data: copies=%d avoided=%d (%.0f%% avoidance)\n",
			copies, avoided, 100*float64(avoided)/float64(copies+avoided))
	}
	rfolds := r.Metrics.Counters[CounterReduceLocalFolds]
	rhops := r.Metrics.Counters[CounterReduceHops] + r.Metrics.Counters[CounterReduceDeliveries]
	rsaved := r.Metrics.Counters[CounterReduceBytesSaved]
	if rfolds+rhops > 0 {
		// Each fold beyond a remote-bound slot's first contribution is one
		// delivery the owner never received individually; tree hops are the
		// partials that did travel, each covering a whole folded subtree.
		fmt.Fprintf(&b, "reduce: local-folds=%d tree-hops=%d owner-inbound-bytes-avoided=%s\n",
			rfolds, rhops, formatSI(rsaved))
	}
	gatherS := r.Metrics.Counters[CounterGatherSends]
	copyS := r.Metrics.Counters[CounterCopySends]
	views := r.Metrics.Counters[CounterViewDecodes]
	if gatherS+copyS+views > 0 {
		fmt.Fprintf(&b, "serde: gather-sends=%d copy-sends=%d view-decodes=%d bytes-zero-copied=%s\n",
			gatherS, copyS, views, formatSI(r.Metrics.Counters[CounterBytesZeroCopied]))
	}

	if hs, ok := r.Metrics.Hists[HistMsgBytes]; ok && hs.Count > 0 {
		fmt.Fprintf(&b, "msg size:   %s\n", hs)
	}
	if hs, ok := r.Metrics.Hists[HistMatchDelay]; ok && hs.Count > 0 {
		fmt.Fprintf(&b, "match wait: %s\n", hs)
	}

	if len(r.PeakBacklog) > 0 {
		b.WriteString("\npeak ready backlog (tasks activated, not yet started):\n")
		ranks := make([]int, 0, len(r.PeakBacklog))
		for rk := range r.PeakBacklog {
			ranks = append(ranks, rk)
		}
		sort.Ints(ranks)
		for _, rk := range ranks {
			fmt.Fprintf(&b, "  rank %-3d %d\n", rk, r.PeakBacklog[rk])
		}
	}

	if len(r.Crit.Steps) > 0 {
		fmt.Fprintf(&b, "\ncritical path: %d tasks, busy=%s gap=%s makespan=%s (busy fraction %.0f%%)\n",
			len(r.Crit.Steps), formatNs(r.Crit.BusyNs), formatNs(r.Crit.GapNs),
			formatNs(r.Crit.MakespanNs),
			100*float64(r.Crit.BusyNs)/float64(max64(r.Crit.MakespanNs, 1)))
		names := make([]string, 0, len(r.Crit.ByTemplate))
		for n := range r.Crit.ByTemplate {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool {
			return r.Crit.ByTemplate[names[i]] > r.Crit.ByTemplate[names[j]]
		})
		b.WriteString("  on-path templates:")
		for _, n := range names {
			fmt.Fprintf(&b, " %s×%d", n, r.Crit.ByTemplate[n])
		}
		b.WriteString("\n")
		if copies+avoided > 0 {
			fmt.Fprintf(&b, "  copy avoidance: %d of %d deliveries shared or taken in place\n",
				avoided, copies+avoided)
		}
	}
	return b.String()
}

func formatNs(ns int64) string {
	f := float64(ns)
	switch {
	case f >= 1e9:
		return fmt.Sprintf("%.2fs", f/1e9)
	case f >= 1e6:
		return fmt.Sprintf("%.2fms", f/1e6)
	case f >= 1e3:
		return fmt.Sprintf("%.1fµs", f/1e3)
	}
	return fmt.Sprintf("%dns", ns)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
