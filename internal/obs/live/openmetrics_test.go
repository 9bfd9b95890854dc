package live_test

import (
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/live"
)

// fakeCollector pushes a fixed set of instantaneous samples.
type fakeCollector struct{ samples []live.Sample }

func (c fakeCollector) CollectLive(emit func(live.Sample)) {
	for _, s := range c.samples {
		emit(s)
	}
}

// TestOpenMetricsExposition renders a session with counters and
// histograms on two ranks plus collector samples (the levels), and checks
// the OpenMetrics text invariants: every registry series labeled by its
// rank, every series preceded by a # TYPE line and printed once, counters
// under a _total suffix, cumulative non-decreasing le buckets ending in
// +Inf with matching _sum/_count, and a final # EOF line.
func TestOpenMetricsExposition(t *testing.T) {
	s := obs.NewSession(obs.Config{Capacity: 16})
	for r := 0; r < 2; r++ {
		reg := s.Rank(r).Metrics()
		n := int64(10 + r)
		reg.ReadCounters(func(emit func(string, int64)) { emit("core.matches", n) })
		h := reg.Histogram("sched.task_ns")
		for _, v := range []int64{0, 1, 3, 900, 70000} {
			h.Observe(v)
		}
	}
	exp := &live.Exporter{
		Session: s,
		Collectors: []live.Collector{fakeCollector{samples: []live.Sample{
			{Name: "core.pending_shells", Rank: 0, Value: 2},
			{Name: "core.pending_shells", Rank: 1, Value: 0},
			{Name: "sched.deque_depth", Rank: 0, Value: 3},
			{Name: "sched.deque_depth", Rank: 1, Value: 7},
			{Name: "test.unlabeled", Rank: -1, Value: 4096},
		}}},
	}

	rec := httptest.NewRecorder()
	exp.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != live.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, live.ContentType)
	}
	body := rec.Body.String()
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Fatalf("exposition must end with \"# EOF\\n\":\n%s", body)
	}

	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	typed := map[string]string{} // family -> type
	seen := map[string]bool{}    // series: name and label set
	var families []string
	for _, ln := range lines {
		if strings.HasPrefix(ln, "# TYPE ") {
			parts := strings.Fields(ln)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", ln)
			}
			typed[parts[2]] = parts[3]
			families = append(families, parts[2])
			continue
		}
		if ln == "# EOF" {
			continue
		}
		// Every sample line must belong to some declared family.
		name := ln
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suf := range []string{"_total", "_bucket", "_sum", "_count"} {
			base = strings.TrimSuffix(base, suf)
		}
		if _, ok := typed[base]; !ok {
			t.Fatalf("sample %q has no preceding # TYPE for %q", ln, base)
		}
		series := ln[:strings.LastIndexByte(ln, ' ')]
		if seen[series] {
			t.Fatalf("series %s printed twice:\n%s", series, body)
		}
		seen[series] = true
	}
	if !sort.StringsAreSorted(families) {
		t.Fatalf("families not sorted: %v", families)
	}

	if typed["core_matches"] != "counter" {
		t.Fatalf("core_matches type = %q, want counter", typed["core_matches"])
	}
	if !strings.Contains(body, `core_matches_total{rank="0"} 10`) ||
		!strings.Contains(body, `core_matches_total{rank="1"} 11`) {
		t.Fatalf("counter series missing _total suffix or per-rank labels:\n%s", body)
	}
	if typed["core_pending_shells"] != "gauge" {
		t.Fatalf("core_pending_shells type = %q, want gauge", typed["core_pending_shells"])
	}
	if typed["sched_task_ns"] != "histogram" {
		t.Fatalf("sched_task_ns type = %q, want histogram", typed["sched_task_ns"])
	}
	// Collector samples: per-rank and unlabeled.
	if !strings.Contains(body, `core_pending_shells{rank="0"} 2`) ||
		!strings.Contains(body, `sched_deque_depth{rank="1"} 7`) ||
		!strings.Contains(body, "test_unlabeled 4096") {
		t.Fatalf("collector samples missing:\n%s", body)
	}
	// The one process-global level is the exporter's own, unlabeled (the
	// tracked-handle level is per rank: the collectors emit it).
	if typed["serde_recv_views"] != "gauge" || !strings.Contains(body, "\nserde_recv_views ") {
		t.Fatalf("process-global level families: %v", typed)
	}
	// A session has no registry but the ranks': no registry series goes
	// unlabeled.
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "core_") || strings.HasPrefix(line, "sched_task_ns") {
			if !strings.Contains(line, `rank="`) {
				t.Fatalf("registry series without a rank label: %q", line)
			}
		}
	}

	// Histogram invariants for rank 0: cumulative counts never decrease,
	// le bounds strictly increase, +Inf count equals _count, and _sum is
	// the sum of observations.
	var cum, infCount, count, sum int64 = -1, -1, -1, -1
	var lastLe float64 = -1
	for _, ln := range lines {
		switch {
		case strings.HasPrefix(ln, `sched_task_ns_bucket{rank="0",le="+Inf"}`):
			infCount = atoi(t, ln)
		case strings.HasPrefix(ln, `sched_task_ns_bucket{rank="0",le="`):
			rest := strings.TrimPrefix(ln, `sched_task_ns_bucket{rank="0",le="`)
			le, err := strconv.ParseFloat(rest[:strings.Index(rest, `"`)], 64)
			if err != nil {
				t.Fatalf("bad le bound in %q: %v", ln, err)
			}
			if le <= lastLe {
				t.Fatalf("le bounds not increasing: %g after %g", le, lastLe)
			}
			lastLe = le
			c := atoi(t, ln)
			if c < cum {
				t.Fatalf("bucket counts not cumulative: %d after %d", c, cum)
			}
			cum = c
		case strings.HasPrefix(ln, `sched_task_ns_sum{rank="0"}`):
			sum = atoi(t, ln)
		case strings.HasPrefix(ln, `sched_task_ns_count{rank="0"}`):
			count = atoi(t, ln)
		}
	}
	if count != 5 || infCount != 5 {
		t.Fatalf("histogram count = %d, +Inf bucket = %d, want 5", count, infCount)
	}
	if sum != 0+1+3+900+70000 {
		t.Fatalf("histogram sum = %d, want %d", sum, 0+1+3+900+70000)
	}
	if cum > infCount {
		t.Fatalf("last finite bucket (%d) exceeds +Inf (%d)", cum, infCount)
	}
}

func atoi(t *testing.T, line string) int64 {
	t.Helper()
	fields := strings.Fields(line)
	v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
	if err != nil {
		t.Fatalf("bad sample value in %q: %v", line, err)
	}
	return v
}
