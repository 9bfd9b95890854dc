package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// counterCell registers on reg a read-through over one atomic cell — what a
// backend does for a whole trace.Collector — and returns the cell.
func counterCell(reg *Registry, name string) *atomic.Int64 {
	c := new(atomic.Int64)
	reg.ReadCounters(func(emit func(string, int64)) { emit(name, c.Load()) })
	return c
}

func TestRankRecordAndEvents(t *testing.T) {
	s := NewSession(Config{Capacity: 8})
	rk := s.Rank(2)
	rk.Record(Event{Kind: EvExecStart, Name: "A", TS: 10})
	rk.Record(Event{Kind: EvExecEnd, Name: "A", TS: 30, Dur: 20})
	evs := rk.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Rank != 2 || evs[1].Rank != 2 {
		t.Errorf("rank not stamped: %+v", evs)
	}
	if evs[0].Kind != EvExecStart || evs[1].Dur != 20 {
		t.Errorf("events corrupted: %+v", evs)
	}
}

func TestRankStampsZeroTS(t *testing.T) {
	s := NewSession(Config{Capacity: 8})
	rk := s.Rank(0)
	rk.Record(Event{Kind: EvFence})
	if ts := rk.Events()[0].TS; ts <= 0 {
		t.Errorf("zero TS not stamped with clock: %d", ts)
	}
}

func TestRankDropsWhenFull(t *testing.T) {
	s := NewSession(Config{Capacity: 4})
	rk := s.Rank(0)
	for i := 0; i < 10; i++ {
		rk.Record(Event{Kind: EvSend, TS: int64(i + 1)})
	}
	if got := len(rk.Events()); got != 4 {
		t.Errorf("buffer held %d events, want 4", got)
	}
	if d := rk.Dropped(); d != 6 {
		t.Errorf("dropped = %d, want 6", d)
	}
	if d := s.Dropped(); d != 6 {
		t.Errorf("session dropped = %d, want 6", d)
	}
}

func TestSessionEventsMergeSorted(t *testing.T) {
	s := NewSession(Config{Capacity: 8})
	s.Rank(1).Record(Event{Kind: EvSend, TS: 30})
	s.Rank(0).Record(Event{Kind: EvSend, TS: 10})
	s.Rank(1).Record(Event{Kind: EvSend, TS: 20})
	evs := s.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Errorf("events not sorted by TS: %+v", evs)
		}
	}
}

// TestRecorderRace is the race-focused satellite test for the obs side: N
// goroutines hammer one rank's recorder, its metrics and a cell the
// registry reads through to, while another goroutine snapshots
// concurrently. Run under -race; totals must be exact.
func TestRecorderRace(t *testing.T) {
	const goroutines, perG = 8, 2000
	s := NewSession(Config{Capacity: goroutines * perG})
	rk := s.Rank(0)
	ctr := counterCell(rk.Metrics(), "test.ops")
	hist := rk.Metrics().Histogram("test.vals")

	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = rk.Metrics().Snapshot()
				_ = rk.Dropped()
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				rk.Record(Event{Kind: EvExecEnd, Name: "T", TS: int64(g*perG + i + 1), Dur: 1})
				ctr.Add(1)
				hist.Observe(int64(i))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()

	if got := len(rk.Events()); got != goroutines*perG {
		t.Errorf("recorded %d events, want %d", got, goroutines*perG)
	}
	if d := rk.Dropped(); d != 0 {
		t.Errorf("dropped %d events with room for all", d)
	}
	if got := rk.Metrics().Snapshot().Counters["test.ops"]; got != goroutines*perG {
		t.Errorf("counter read through = %d, want %d", got, goroutines*perG)
	}
	if got := hist.Snapshot().Count; got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 1000, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	// 0 and -5 (clamped) -> bucket 0; 1 -> 1; 2,3 -> 2; 4 -> 3; 1000 -> 10.
	want := map[int]int64{0: 2, 1: 1, 2: 2, 3: 1, 10: 1}
	for _, b := range s.Buckets {
		if want[b.Log2] != b.Count {
			t.Errorf("bucket 2^%d = %d, want %d", b.Log2, b.Count, want[b.Log2])
		}
		delete(want, b.Log2)
	}
	if len(want) != 0 {
		t.Errorf("missing buckets: %v", want)
	}
	// The p50 target is the 3rd of 7 sorted observations (0,0,1,...), which
	// lands in the [1,2) bucket, so the upper-edge estimate is 2.
	if q := s.Quantile(0.5); q != 2 {
		t.Errorf("p50 = %d, want 2 (upper edge of the [1,2) bucket)", q)
	}
}

func TestRegistryMerge(t *testing.T) {
	var a, b Registry
	counterCell(&a, "c").Add(2)
	counterCell(&b, "c").Add(3)
	a.Histogram("h").Observe(10)
	b.Histogram("h").Observe(1000)
	m := a.Snapshot().Merge(b.Snapshot())
	if m.Counters["c"] != 5 {
		t.Errorf("merged counter = %d, want 5", m.Counters["c"])
	}
	if m.Hists["h"].Count != 2 {
		t.Errorf("merged hist count = %d, want 2", m.Hists["h"].Count)
	}
}

func TestAnalyze(t *testing.T) {
	events := []Event{
		{Kind: EvTaskActivate, TT: 1, Rank: 0, Key: "[0]", TS: 100},
		{Kind: EvExecStart, TT: 1, Rank: 0, Key: "[0]", Name: "A", TS: 150},
		{Kind: EvExecEnd, TT: 1, Rank: 0, Key: "[0]", Name: "A", TS: 250, Dur: 100},
		{Kind: EvMsgEnqueue, Rank: 0, TS: 260, Bytes: 64},
		{Kind: EvMsgDeliver, Rank: 1, TS: 300, Bytes: 64},
		{Kind: EvExecEnd, TT: 2, Rank: 1, Key: "[1]", Name: "B", TS: 500, Dur: 150},
		{Kind: EvFence, Rank: 0, TS: 600},
	}
	rep := Analyze(events)
	if rep.Ranks != 2 || rep.Events != 7 {
		t.Errorf("ranks=%d events=%d, want 2 and 7", rep.Ranks, rep.Events)
	}
	if rep.Msgs.Enqueued != 1 || rep.Msgs.Delivered != 1 || rep.Msgs.BytesOut != 64 {
		t.Errorf("msgs = %+v", rep.Msgs)
	}
	if len(rep.Templates) != 2 {
		t.Fatalf("templates = %d, want 2", len(rep.Templates))
	}
	// B has more total time, so it sorts first.
	if rep.Templates[0].Name != "B" || rep.Templates[0].TotalNs != 150 {
		t.Errorf("top template = %+v", rep.Templates[0])
	}
	if rep.MatchHist.Count != 1 || rep.MatchHist.Sum != 50 {
		t.Errorf("match hist = %+v, want one 50ns delay", rep.MatchHist)
	}
	if rep.Fences != 1 {
		t.Errorf("fences = %d", rep.Fences)
	}
}

// TestPeakBacklog pins the event-derived ready backlog on a two-rank
// stream, interleaved by TS as Session.Events merges it. Rank 0 activates
// three tasks before the first starts (peak 3), rank 1 never holds more
// than one; a start whose activation was not recorded (a dropped event)
// leaves the count alone, a repeated activation is one task, and a rank
// that recorded no activation still reports its peak, 0.
func TestPeakBacklog(t *testing.T) {
	act := func(rank int32, key string, ts int64) Event {
		return Event{Kind: EvTaskActivate, TT: 1, Rank: rank, Key: key, TS: ts}
	}
	start := func(rank int32, key string, ts int64) Event {
		return Event{Kind: EvExecStart, TT: 1, Rank: rank, Key: key, Name: "T", TS: ts}
	}
	events := []Event{
		act(0, "[0]", 10),
		act(1, "[0]", 11),
		act(0, "[1]", 12),
		start(1, "[0]", 13),
		act(0, "[1]", 14),   // re-recorded activation: still one task
		start(0, "[9]", 15), // activation never recorded
		act(0, "[2]", 16),   // rank 0: [0] [1] [2] waiting
		start(0, "[0]", 17),
		act(1, "[1]", 18),
		start(1, "[1]", 19),
		start(0, "[1]", 20),
		act(0, "[3]", 21), // back to 2 waiting, under the peak
		{Kind: EvFence, Rank: 2, TS: 30},
	}
	rep := Analyze(events)
	want := map[int]int64{0: 3, 1: 1, 2: 0}
	if len(rep.PeakBacklog) != len(want) {
		t.Fatalf("peak backlog = %v, want %v", rep.PeakBacklog, want)
	}
	for r, n := range want {
		if rep.PeakBacklog[r] != n {
			t.Errorf("rank %d peak backlog = %d, want %d (all: %v)", r, rep.PeakBacklog[r], n, rep.PeakBacklog)
		}
	}
	if rep.Ranks != 3 {
		t.Errorf("ranks = %d, want 3", rep.Ranks)
	}
	out := rep.String()
	for _, line := range []string{"  rank 0   3\n", "  rank 1   1\n", "  rank 2   0\n"} {
		if !strings.Contains(out, line) {
			t.Errorf("report missing %q:\n%s", line, out)
		}
	}
}

func TestCriticalPath(t *testing.T) {
	// A [0,100) on rank 0 feeds B [120,200) on rank 1; C [0,50) is off-path.
	events := []Event{
		{Kind: EvExecEnd, Rank: 0, Name: "A", Key: "[0]", TS: 100, Dur: 100},
		{Kind: EvExecEnd, Rank: 0, Name: "C", Key: "[9]", TS: 50, Dur: 50},
		{Kind: EvExecEnd, Rank: 1, Name: "B", Key: "[1]", TS: 200, Dur: 80},
	}
	rep := Analyze(events)
	cp := rep.Crit
	if len(cp.Steps) != 2 {
		t.Fatalf("critical path has %d steps: %+v", len(cp.Steps), cp.Steps)
	}
	if cp.Steps[0].Name != "A" || cp.Steps[1].Name != "B" {
		t.Errorf("path = %s -> %s, want A -> B", cp.Steps[0].Name, cp.Steps[1].Name)
	}
	if cp.BusyNs != 180 || cp.GapNs != 20 || cp.MakespanNs != 200 {
		t.Errorf("busy=%d gap=%d makespan=%d, want 180/20/200", cp.BusyNs, cp.GapNs, cp.MakespanNs)
	}
	if cp.ByTemplate["A"] != 1 || cp.ByTemplate["B"] != 1 || cp.ByTemplate["C"] != 0 {
		t.Errorf("by-template = %v", cp.ByTemplate)
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	cp := Analyze(nil).Crit
	if len(cp.Steps) != 0 || cp.MakespanNs != 0 {
		t.Errorf("empty analysis produced a path: %+v", cp)
	}
}

// chromeEvent mirrors the subset of the trace-event schema both exporters
// must produce.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// TestChromeJSONGolden is the schema satellite: the shared writer must emit
// parseable trace-event JSON with escaped names and non-negative times.
func TestChromeJSONGolden(t *testing.T) {
	spans := []ChromeSpan{
		{Name: `GEMM["quoted\key"]`, Pid: 0, Tid: 1, TS: 1.5, Dur: 2.25},
		{Name: "neg", Pid: 1, Tid: 0, TS: -3, Dur: -1},
	}
	instants := []ChromeInstant{{Name: "fence", Pid: 0, Tid: 0, TS: 10}}
	out := ChromeJSON(spans, instants)

	var evs []chromeEvent
	if err := json.Unmarshal([]byte(out), &evs); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].Name != `GEMM["quoted\key"]` {
		t.Errorf("name not round-tripped: %q", evs[0].Name)
	}
	if evs[0].Ph != "X" || evs[2].Ph != "i" {
		t.Errorf("phases = %q, %q", evs[0].Ph, evs[2].Ph)
	}
	for _, e := range evs {
		if e.TS < 0 || e.Dur < 0 {
			t.Errorf("negative time not clamped: %+v", e)
		}
	}
}

// TestChromeJSONFromEvents checks the event-stream exporter emits the same
// schema: exec spans become "X" events positioned at start time, lifecycle
// markers become "i" instants.
func TestChromeJSONFromEvents(t *testing.T) {
	events := []Event{
		{Kind: EvExecEnd, Rank: 2, Worker: 1, Name: "TRSM", Key: "[2 0]", TS: 5000, Dur: 3000},
		{Kind: EvSteal, Rank: 0, Worker: 3, TS: 1000},
		{Kind: EvMsgEnqueue, Rank: 0, TS: 500, Bytes: 64}, // omitted from traces
	}
	var evs []chromeEvent
	if err := json.Unmarshal([]byte(ChromeJSONFromEvents(events)), &evs); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2 (messages omitted)", len(evs))
	}
	span := evs[0]
	if span.Name != "TRSM[2 0]" || span.Pid != 2 || span.Tid != 1 {
		t.Errorf("span = %+v", span)
	}
	if span.TS != 2.0 || span.Dur != 3.0 {
		t.Errorf("span ts=%v dur=%v, want 2µs and 3µs", span.TS, span.Dur)
	}
	if evs[1].Ph != "i" || evs[1].Name != "steal" {
		t.Errorf("instant = %+v", evs[1])
	}
}

func TestReportString(t *testing.T) {
	s := NewSession(Config{Capacity: 16})
	rk := s.Rank(0)
	rk.Record(Event{Kind: EvExecEnd, Name: "K", Key: "[0]", TS: 100, Dur: 50, Worker: 0})
	rk.Record(Event{Kind: EvTaskActivate, TT: 0, Key: "[1]", TS: 120})
	out := s.Report().String()
	for _, want := range []string{"per-template profiles", "K", "critical path", "peak ready backlog", "rank 0   1"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
