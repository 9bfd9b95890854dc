package main

import (
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// metric is one reported value; metrics maps metric names to them.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// budget decides how many repetitions a measurement loop runs: a fixed
// count, or as many as fit in a time span.
type budget struct {
	reps    int
	seconds float64
}

// more reports whether to start another repetition. A time span always
// gets minReps of them, so that a median exists on a slow machine.
func (b budget) more(done, minReps int, start time.Time) bool {
	if b.seconds > 0 {
		return done < minReps || time.Since(start).Seconds() < b.seconds
	}
	return done < b.reps
}

// counts are the trace.Snapshot counters that depend on the inputs alone,
// not on timing: equal seeds must reproduce them exactly. WirePackets and
// TasksStolen are left out because coalescer flushes and steals follow
// the schedule.
type counts struct {
	tasks, matchOps, msgs, bytes, gather, copySends, views int64
}

func countsOf(s trace.Snapshot) counts {
	return counts{s.TasksExecuted, s.MatchOps, s.MsgsSent, s.BytesSent, s.GatherSends, s.CopySends, s.ViewDecodes}
}

// runner measures one workload: it carries the repetition bookkeeping
// across the warm-up, the timed loop and the traced rounds, and holds
// what they produced.
type runner struct {
	w      *workload
	seed   int64
	next   int     // repetition index, feeds the check's rng
	first  *counts // counters of the first good untraced repetition
	wedged bool    // a repetition timed out: its goroutines still run, so stop measuring

	attempted int
	failed    int
	walls     []float64 // wall_s of the timed, untraced repetitions that passed
	endToEnd  metrics   // nil until measureEndToEnd succeeds
	perLayer  metrics   // nil until measureLayers succeeds
}

func logf(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }

// warmUp runs the one untimed repetition that fills pools and finishes
// lazy set-up; it is still checked and still counts as attempted.
func (rn *runner) warmUp() {
	if rn.next == 0 {
		rn.run(rn.w, false)
	}
}

// run executes one repetition of w (the workload itself or its 1x1
// baseline), books it, and returns it; ok is false when it failed.
func (rn *runner) run(w *workload, traced bool) (rep, bool) {
	r := runRepTimed(w, rn.seed, rn.next, traced)
	rn.next++
	rn.attempted++
	if r.err == nil && !traced && w == rn.w {
		c := countsOf(r.stats)
		if rn.first == nil {
			rn.first = &c
		} else if c != *rn.first {
			r.err = fmt.Errorf("counters did not repeat: %+v, first repetition had %+v", c, *rn.first)
		}
	}
	if r.err != nil {
		rn.failed++
		logf("  %s repetition %d FAILED: %v", w.name, rn.next-1, r.err)
		if r.timedOut {
			rn.wedged = true
		}
		return r, false
	}
	return r, true
}

// drySetups is how many set-ups without a run follow each timed
// repetition; see setUpOnly.
const drySetups = 10

// measureEndToEnd runs the warm-up and the timed, untraced repetitions
// and fills res.endToEnd. wall_s is the fastest repetition, not the
// median: on the machine this was written on, other tenants slow whole
// stretches of a run, and over ten 15 s runs the median moved by 8-20% of
// itself where the minimum moved by 4-10% (bench/README.md has the
// table). The interference only ever adds time, so the fastest repetition
// is the one closest to the program's own cost.
func (rn *runner) measureEndToEnd(b budget) {
	w := rn.w
	rn.warmUp()
	var setups, allocs []float64
	start := time.Now()
	for n := 0; b.more(n, 3, start) && !rn.wedged; n++ {
		r, ok := rn.run(w, false)
		if !ok {
			continue
		}
		rn.walls = append(rn.walls, r.wallS)
		setups = append(setups, r.setupS)
		allocs = append(allocs, float64(r.allocB)/1e6)
		for i := 0; i < drySetups; i++ {
			s, err := setUpOnly(w, rn.seed)
			if err != nil {
				rn.attempted++
				rn.failed++
				logf("  %s dry set-up FAILED: %v", w.name, err)
				break
			}
			setups = append(setups, s)
		}
	}
	if len(rn.walls) == 0 {
		return
	}
	m := metrics{}
	wall := slices.Min(rn.walls)
	m.set("setup_s", median(setups), "s")
	m.set("wall_s", wall, "s")
	m.set("tasks_per_s", float64(w.tasks)/wall, "1/s")
	m.set("alloc_mb_per_run", median(allocs), "MB")
	rn.endToEnd = m
}

// measureLayers runs rounds of three legs — untraced, traced, and the 1x1
// baseline of the same problem — until the budget is spent, and fills
// res.perLayer with the layer probes' values plus the metrics derived
// from the fastest leg of each kind. The legs alternate so that a slow
// phase of the machine hits all three alike.
func (rn *runner) measureLayers(b budget, probes metrics) {
	w := rn.w
	rn.warmUp()
	var plain, traced, base *rep
	faster := func(best *rep, r rep) *rep {
		if best == nil || r.wallS < best.wallS {
			return &r
		}
		return best
	}
	start := time.Now()
	for n := 0; b.more(n, 1, start) && !rn.wedged; n++ {
		p, ok1 := rn.run(w, false)
		t, ok2 := rn.run(w, true)
		s, ok3 := p, true
		if w.totalWorkers() > 1 {
			s, ok3 = rn.run(w.serial(), false)
		}
		if ok1 && ok2 && ok3 {
			plain, traced, base = faster(plain, p), faster(traced, t), faster(base, s)
		}
	}
	if plain == nil {
		return
	}
	rn.perLayer = metrics{}
	for name, v := range probes {
		rn.perLayer[name] = v
	}
	tracedMetrics(rn.perLayer, w, *plain, *traced, *base)
}

// tracedMetrics derives the per-layer metrics of a run from its fastest
// untraced, traced and 1x1 repetitions. Counters come from the untraced leg (tracing adds flow ids to the wire header, so traced
// byte counts differ); times come from the traced leg alone, so that
// body + idle + overhead is its wall × workers exactly, and
// run.trace_overhead_frac says how far that leg is from an untraced run.
func tracedMetrics(m metrics, w *workload, plain, traced, base rep) {
	s, rp := plain.stats, traced.report
	tasks := float64(w.tasks)
	workers := float64(w.totalWorkers())

	m.set("core.match_ops", float64(s.MatchOps), "count")
	m.set("sched.tasks_stolen", float64(s.TasksStolen), "count")
	m.set("serde.gather_sends", float64(s.GatherSends), "count")
	m.set("serde.copy_sends", float64(s.CopySends), "count")
	m.set("serde.view_decodes", float64(s.ViewDecodes), "count")
	m.set("coalesce.wire_packets", float64(s.WirePackets), "count")
	m.set("coalesce.msgs_per_packet", ratio(float64(s.CoalescedMsgs), float64(s.WirePackets)), "ratio")
	m.set("netfab.bytes_on_wire_mb", float64(s.BytesSent)/1e6, "MB")
	m.set("netfab.msgs", float64(s.MsgsSent), "count")
	m.set("alloc.bytes_per_task", float64(plain.allocB)/tasks, "B")

	c := rp.Metrics.Counters
	m.set("sched.steal_hit_ratio", ratio(float64(c[obs.CounterSteals]), float64(c[obs.CounterStealAttempts])), "ratio")
	m.set("sched.inline_ratio", float64(c[obs.CounterInlined])/tasks, "ratio")

	// Worker-seconds of the traced leg split three ways. Idle is the part
	// in which the process used no CPU; overhead is CPU spent outside task
	// bodies (matching and dispatch on the workers, comm and socket
	// threads, GC), so a spinning thread counts as overhead, not idle.
	total := traced.wallS * workers
	body := float64(rp.Metrics.Hists[obs.HistTaskLatency].Sum) / 1e9
	// Clamped: GC and comm threads can push CPU past wall × workers, and a
	// descheduled body can push body + idle a fraction of a percent past it.
	idle := min(max(total-traced.cpuS, 0), max(total-body, 0))
	m.set("run.body_s", body, "s")
	m.set("run.worker_idle_frac", idle/total, "ratio")
	m.set("run.overhead_us_per_task", (total-body-idle)/tasks*1e6, "us")
	m.set("run.crit_busy_s", float64(rp.Crit.BusyNs)/1e9, "s")
	m.set("run.crit_gap_s", float64(rp.Crit.GapNs)/1e9, "s")
	m.set("run.trace_overhead_frac", traced.wallS/plain.wallS-1, "ratio")
	m.set("run.events_dropped", float64(rp.Dropped), "count")

	m.set("scale.eff_2r", base.wallS/(workers*plain.wallS), "ratio")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
