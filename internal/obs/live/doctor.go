// Package live is the always-available live introspection subsystem: a
// graph doctor that watches the sharded match tables and termination
// detector for wedged graphs and emits structured stall reports with
// blame edges, an OpenMetrics exporter serving lock-free progress gauges
// while a run is in flight, and crash-dump plumbing that flushes the
// in-flight obs trace on worker panics or SIGQUIT.
//
// Everything here is nil-checked and pull-based: an unobserved run pays
// nothing, an observed one pays a periodic probe that reads atomics and
// only sweeps shard locks when it actually has a stall to report.
package live

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/serde"
)

// Progress is a monotone fingerprint of one rank's forward motion; any
// change between two probes proves the graph is not stalled.
type Progress struct {
	Tasks        int64
	MsgsSent     int64
	MsgsReceived int64
}

// Target is one rank's introspection surface. Backends construct these
// (backend.Proc.LiveTarget, sim.Proc.LiveTarget); tests can hand-build
// them.
type Target struct {
	Rank int
	// Graph returns the rank's bound graph, or nil before binding.
	Graph func() *core.Graph
	// Progress returns the rank's forward-motion counters.
	Progress func() Progress
	// Active optionally returns the termination detector's local activity
	// level (pending tasks + in-flight deliveries). A wedged graph has
	// zero activity everywhere — partially filled shells hold no
	// activation — while a graph merely running long tasks does not, so
	// this is what keeps slow-but-healthy runs from being misreported.
	// Nil (the sim backend) is treated as always zero.
	Active func() int64
	// Sched optionally returns the rank's worker-pool fingerprint
	// (parked-worker count, steal hit rate, inline/park/wake counters);
	// nil for backends without a pool (the sim dispatches in virtual time).
	Sched func() sched.Stats
}

// Config tunes the doctor's stall detection.
type Config struct {
	// Quiet is how long the cluster must hold pending shells with zero
	// progress and zero activity before a stall report fires (default 2s).
	Quiet time.Duration
	// Interval is the probe period (default Quiet/4, minimum 1ms).
	Interval time.Duration
	// MaxPerTT caps the pending shells sampled per template per rank in a
	// report (default 8; negative means unlimited).
	MaxPerTT int
	// OnStall, when set, receives each stall report — at most one per
	// quiet episode; progress re-arms detection.
	OnStall func(*StallReport)
}

// Doctor is the periodic stall watchdog over a set of rank targets.
type Doctor struct {
	cfg     Config
	targets []Target

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}

	reports atomic.Int64
	mu      sync.Mutex
	last    *StallReport
}

// NewDoctor builds a doctor over the given rank targets; call Start to
// launch the watchdog, or probe synchronously with Diagnose.
func NewDoctor(cfg Config, targets ...Target) *Doctor {
	if cfg.Quiet <= 0 {
		cfg.Quiet = 2 * time.Second
	}
	if cfg.Interval <= 0 {
		cfg.Interval = cfg.Quiet / 4
	}
	if cfg.Interval < time.Millisecond {
		cfg.Interval = time.Millisecond
	}
	if cfg.MaxPerTT == 0 {
		cfg.MaxPerTT = 8
	}
	return &Doctor{
		cfg:     cfg,
		targets: targets,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// Start launches the watchdog goroutine. Idempotent.
func (d *Doctor) Start() {
	d.startOnce.Do(func() { go d.loop() })
}

// Stop halts the watchdog and waits for it to exit. Idempotent; safe to
// call without Start (it then just closes the channels).
func (d *Doctor) Stop() {
	d.stopOnce.Do(func() { close(d.stop) })
	d.startOnce.Do(func() { close(d.done) })
	<-d.done
}

// Reports returns how many stall reports have fired.
func (d *Doctor) Reports() int64 { return d.reports.Load() }

// LastReport returns the most recent stall report, or nil.
func (d *Doctor) LastReport() *StallReport {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.last
}

// fingerprint is one probe's cheap (atomics-only) cluster observation.
type fingerprint struct {
	progress Progress
	active   int64
	pending  int64
}

func (d *Doctor) observe() fingerprint {
	var fp fingerprint
	for _, t := range d.targets {
		if t.Progress != nil {
			p := t.Progress()
			fp.progress.Tasks += p.Tasks
			fp.progress.MsgsSent += p.MsgsSent
			fp.progress.MsgsReceived += p.MsgsReceived
		}
		if t.Active != nil {
			fp.active += t.Active()
		}
		if t.Graph != nil {
			if g := t.Graph(); g != nil {
				// Parked combiner partials count as pending work: a graph
				// wedged with an unflushed partial (a commutative stream
				// whose count never closes) has zero shells but must still
				// trip stall detection.
				fp.pending += g.PendingTaskCount() + g.PendingReductions()
			}
		}
	}
	return fp
}

// loop is the doctor state machine: HEALTHY while progress counters move,
// activity is nonzero, or nothing is pending; QUIET once all three go
// static with shells outstanding; STALLED (one report) after the quiet
// period elapses without change. Any progress resets to HEALTHY and
// re-arms reporting.
func (d *Doctor) loop() {
	defer close(d.done)
	last := d.observe()
	quietSince := time.Now()
	fired := false
	tick := time.NewTicker(d.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-tick.C:
		}
		fp := d.observe()
		if fp.progress != last.progress || fp.active != 0 || fp.pending == 0 {
			last = fp
			quietSince = time.Now()
			fired = false
			continue
		}
		last = fp
		if q := time.Since(quietSince); !fired && q >= d.cfg.Quiet {
			fired = true
			if rep := d.Diagnose(); rep != nil {
				rep.QuietFor = q
				d.deliver(rep)
			}
		}
	}
}

func (d *Doctor) deliver(rep *StallReport) {
	d.mu.Lock()
	d.last = rep
	d.mu.Unlock()
	d.reports.Add(1)
	if d.cfg.OnStall != nil {
		d.cfg.OnStall(rep)
	}
}

// Diagnose snapshots and classifies pending shells across all targets
// right now, regardless of quiet state — the crash-dump path and the sim
// backend (whose fence returns even when the graph is wedged) use it as a
// synchronous probe. Returns nil when no shell, partial, receive view or
// tracked handle is live anywhere.
func (d *Doctor) Diagnose() *StallReport {
	max := d.cfg.MaxPerTT
	if max < 0 {
		max = 0 // core.PendingTasks: <=0 means unlimited
	}
	rep := &StallReport{}
	for _, t := range d.targets {
		if t.Graph == nil {
			continue
		}
		g := t.Graph()
		if g == nil {
			continue
		}
		sampled, total := g.PendingTasks(max)
		partials := g.PendingPartials(max)
		nPart := g.PendingReductions()
		tracked := g.LiveTrackedHandles()
		var act int64
		if t.Active != nil {
			act = t.Active()
		}
		rep.Active += act
		rep.Pending += total
		rep.Partials += nPart
		rep.Tracked += tracked
		if total > 0 || nPart > 0 || tracked > 0 {
			rp := RankPending{Rank: t.Rank, Active: act, Total: total, Sampled: sampled,
				PartialCount: nPart, Partials: partials, Tracked: tracked}
			if t.Sched != nil {
				s := t.Sched()
				rp.Sched = &s
			}
			rep.Ranks = append(rep.Ranks, rp)
		}
	}
	// Outstanding receive views pin pooled buffers; the ledger is
	// process-global (one serde registry), so it is sampled once, not per
	// rank. Post-fence, a nonzero count means some view-decoded value was
	// parked without its lease ending — leaked pool memory worth reporting
	// even when no task shell is pending.
	rep.RecvViews = serde.LiveRecvViews()
	if rep.Pending == 0 && rep.Partials == 0 && rep.RecvViews == 0 && rep.Tracked == 0 {
		return nil
	}
	sort.Slice(rep.Ranks, func(i, j int) bool { return rep.Ranks[i].Rank < rep.Ranks[j].Rank })
	rep.aggregate()
	return rep
}

// RankPending is one rank's share of a stall report.
type RankPending struct {
	Rank    int
	Active  int64
	Total   int64 // all pending shells on this rank
	Sampled []core.PendingTask
	Sched   *sched.Stats // scheduler fingerprint, nil without a pool
	// PartialCount is how many combiner slots hold unflushed reduction
	// partials on this rank; Partials samples them. A stall whose only
	// pending work is partials usually means a commutative stream whose
	// count never closes (missing SetStreamSize, or a contributor that
	// never ran).
	PartialCount int64
	Partials     []core.PendingPartial
	// Tracked is this rank's count of live data-tracker handles.
	Tracked int64
}

// BlameEdge aggregates the stalled shells missing the same input: "Count
// shells of template Consumer never received input Term, which edge Edge
// should have carried from Producers".
type BlameEdge struct {
	Consumer  string
	Term      int
	Edge      string
	Count     int
	Producers []core.ProducerRef
	SampleKey string
}

// StallReport is the doctor's structured diagnosis of a wedged graph.
type StallReport struct {
	QuietFor time.Duration
	Pending  int64
	Active   int64
	// Partials counts unflushed hierarchical-reduction partials across
	// all ranks (combiner slots that never drained).
	Partials int64
	// RecvViews counts receive views still leasing pooled buffers at
	// diagnosis time (process-global serde ledger). Nonzero after a fence
	// means zero-copy payload memory is pinned by a parked value.
	RecvViews int64
	// Tracked counts the data trackers' live value handles across all
	// ranks. Nonzero after a fence with nothing pending means a handle
	// leaked: some consumer never resolved it.
	Tracked int64
	Ranks   []RankPending
	Blames  []BlameEdge
}

// aggregate folds the sampled pending tasks into blame edges, ordered by
// descending shell count.
func (r *StallReport) aggregate() {
	type key struct {
		consumer string
		term     int
		edge     string
	}
	idx := map[key]int{}
	for _, rp := range r.Ranks {
		for _, pt := range rp.Sampled {
			for _, mi := range pt.Missing {
				k := key{consumer: pt.TT, term: mi.Term, edge: mi.Edge}
				i, ok := idx[k]
				if !ok {
					i = len(r.Blames)
					idx[k] = i
					r.Blames = append(r.Blames, BlameEdge{
						Consumer:  pt.TT,
						Term:      mi.Term,
						Edge:      mi.Edge,
						Producers: mi.Producers,
						SampleKey: pt.Key,
					})
				}
				r.Blames[i].Count++
			}
		}
	}
	sort.Slice(r.Blames, func(i, j int) bool {
		if r.Blames[i].Count != r.Blames[j].Count {
			return r.Blames[i].Count > r.Blames[j].Count
		}
		return r.Blames[i].Edge < r.Blames[j].Edge
	})
}

// String renders the report in the shape `ttg-bench doctor` prints.
func (r *StallReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "GRAPH STALL: %d pending task shell(s), no progress for %s (active=%d",
		r.Pending, r.QuietFor.Round(time.Millisecond), r.Active)
	if r.Partials > 0 {
		fmt.Fprintf(&b, ", unflushed reduction partials=%d", r.Partials)
	}
	b.WriteString(")\n")
	if r.Tracked > 0 {
		fmt.Fprintf(&b, "  WARNING: %d tracked value handle(s) still live — a runtime-owned value some consumer never resolved\n",
			r.Tracked)
	}
	if r.RecvViews > 0 {
		fmt.Fprintf(&b, "  WARNING: %d receive view(s) still lease pooled buffers — a zero-copy decoded value was never released or consumed\n",
			r.RecvViews)
	}
	for _, rp := range r.Ranks {
		fmt.Fprintf(&b, "  rank %d: pending=%d active=%d", rp.Rank, rp.Total, rp.Active)
		if rp.PartialCount > 0 {
			fmt.Fprintf(&b, " partials=%d", rp.PartialCount)
		}
		if rp.Tracked > 0 {
			fmt.Fprintf(&b, " tracked=%d", rp.Tracked)
		}
		if rp.Sched != nil {
			fmt.Fprintf(&b, " sched[%s]", rp.Sched)
		}
		b.WriteString("\n")
		for _, pp := range rp.Partials {
			fmt.Fprintf(&b, "    unflushed partial: %s%s input %d, %d contribution(s) folded, owner rank %d — commutative stream never closed by count\n",
				pp.TT, pp.Key, pp.Term, pp.Count, pp.Owner)
		}
		for _, pt := range rp.Sampled {
			for _, mi := range pt.Missing {
				fmt.Fprintf(&b, "    %s%s: missing input %d", pt.TT, pt.Key, mi.Term)
				if mi.Edge != "" {
					fmt.Fprintf(&b, " (edge %q)", mi.Edge)
				}
				if mi.Streaming {
					if mi.Want >= 0 {
						fmt.Fprintf(&b, " stream %d/%d", mi.Got, mi.Want)
					} else {
						fmt.Fprintf(&b, " stream %d/?", mi.Got)
					}
				}
				b.WriteString(producersString(mi.Producers))
				b.WriteString("\n")
			}
		}
	}
	if len(r.Blames) > 0 {
		b.WriteString("  blame edges:\n")
		for _, be := range r.Blames {
			fmt.Fprintf(&b, "    edge %q -> %s input %d: %d stalled shell(s)%s (e.g. key %s)\n",
				be.Edge, be.Consumer, be.Term, be.Count,
				producersString(be.Producers), be.SampleKey)
		}
	}
	return b.String()
}

func producersString(ps []core.ProducerRef) string {
	if len(ps) == 0 {
		return " <- no producer terminal feeds this edge"
	}
	var b strings.Builder
	b.WriteString(" <- producer")
	if len(ps) > 1 {
		b.WriteString("s")
	}
	for i, p := range ps {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, " %s", p.TT)
		if p.Rank >= 0 {
			fmt.Fprintf(&b, " (likely rank %d)", p.Rank)
		}
	}
	return b.String()
}
