package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

// chromeRecord is the subset of the Chrome trace-event schema the flow
// tests care about.
type chromeRecord struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	ID   uint64  `json:"id"`
	BP   string  `json:"bp"`
	TS   float64 `json:"ts"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

func parseChrome(t *testing.T, js string) []chromeRecord {
	t.Helper()
	var recs []chromeRecord
	if err := json.Unmarshal([]byte(js), &recs); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, js)
	}
	return recs
}

// checkFlowPairs asserts the flow-event schema invariant: every "s"
// record has exactly one "f" with the same id and vice versa, finishes
// carry bp:"e", and no finish precedes its start.
func checkFlowPairs(t *testing.T, recs []chromeRecord) map[uint64][2]chromeRecord {
	t.Helper()
	starts := map[uint64]chromeRecord{}
	finishes := map[uint64]chromeRecord{}
	for _, r := range recs {
		if r.Cat != "flow" {
			continue
		}
		switch r.Ph {
		case "s":
			if _, dup := starts[r.ID]; dup {
				t.Fatalf("duplicate flow start id %d", r.ID)
			}
			starts[r.ID] = r
		case "f":
			if _, dup := finishes[r.ID]; dup {
				t.Fatalf("duplicate flow finish id %d", r.ID)
			}
			if r.BP != "e" {
				t.Fatalf("flow finish id %d missing bp:\"e\": %+v", r.ID, r)
			}
			finishes[r.ID] = r
		default:
			t.Fatalf("unexpected flow phase %q: %+v", r.Ph, r)
		}
	}
	if len(starts) != len(finishes) {
		t.Fatalf("unbalanced flows: %d starts, %d finishes", len(starts), len(finishes))
	}
	pairs := map[uint64][2]chromeRecord{}
	for id, s := range starts {
		f, ok := finishes[id]
		if !ok {
			t.Fatalf("dangling flow start id %d", id)
		}
		if f.TS < s.TS {
			t.Fatalf("flow id %d finishes (%.3f) before it starts (%.3f)", id, f.TS, s.TS)
		}
		pairs[id] = [2]chromeRecord{s, f}
	}
	return pairs
}

// TestChromeFlowSchema checks ChromeJSONFull directly: each ChromeFlow
// becomes one s/f pair sharing an id, with source and destination
// coordinates preserved.
func TestChromeFlowSchema(t *testing.T) {
	flows := []ChromeFlow{
		{Name: "msg", ID: 101, SrcPid: 0, SrcTid: 1, SrcTS: 5, DstPid: 2, DstTid: 0, DstTS: 9},
		{Name: "bcast", ID: 102, SrcPid: 1, SrcTid: 0, SrcTS: 3, DstPid: 3, DstTid: 2, DstTS: 3},
		// Clock skew across ranks: the writer must clamp so the finish
		// never precedes the start.
		{ID: 103, SrcPid: 0, SrcTid: 0, SrcTS: 8, DstPid: 1, DstTid: 0, DstTS: 6},
	}
	recs := parseChrome(t, ChromeJSONFull(nil, nil, flows))
	pairs := checkFlowPairs(t, recs)
	if len(pairs) != len(flows) {
		t.Fatalf("got %d flow pairs, want %d", len(pairs), len(flows))
	}
	p := pairs[101]
	if p[0].Pid != 0 || p[0].Tid != 1 || p[1].Pid != 2 || p[1].Tid != 0 {
		t.Fatalf("flow 101 coordinates: start %+v finish %+v", p[0], p[1])
	}
	if p[0].Name != "msg" || p[1].Name != "msg" {
		t.Fatalf("flow 101 names: %q / %q", p[0].Name, p[1].Name)
	}
	if anon := pairs[103]; anon[0].Name != "msg" {
		t.Fatalf("unnamed flow should default to \"msg\", got %q", anon[0].Name)
	}
}

// TestChromeFlowFromEvents drives the event-stream path: emit/recv pairs
// with matching Flow ids become paired flow records; an emit whose recv
// was never recorded (e.g. dropped by a full buffer) must not leave a
// dangling start in the trace.
func TestChromeFlowFromEvents(t *testing.T) {
	s := NewSession(Config{Capacity: 64})
	r0, r1 := s.Rank(0), s.Rank(1)

	r0.Record(Event{Kind: EvFlowEmit, Worker: 0, Flow: 1<<48 | 7, Name: "A->B", TS: 10})
	r0.Record(Event{Kind: EvFlowEmit, Worker: 1, Flow: 1<<48 | 8, Name: "A->B", TS: 20})
	r0.Record(Event{Kind: EvFlowEmit, Worker: 0, Flow: 1<<48 | 9, Name: "lost", TS: 30}) // dangling
	r1.Record(Event{Kind: EvFlowRecv, Worker: 0, Flow: 1<<48 | 7, TS: 40})
	r1.Record(Event{Kind: EvFlowRecv, Worker: 1, Flow: 1<<48 | 8, TS: 50})
	r1.Record(Event{Kind: EvFlowRecv, Worker: 0, Flow: 1<<48 | 99, TS: 60}) // recv with no emit
	// Flow id 0 means "untraced" and must never produce records.
	r0.Record(Event{Kind: EvFlowEmit, Worker: 0, Flow: 0, TS: 70})
	r1.Record(Event{Kind: EvFlowRecv, Worker: 0, Flow: 0, TS: 80})

	recs := parseChrome(t, ChromeJSONFromEvents(s.Events()))
	pairs := checkFlowPairs(t, recs)
	if len(pairs) != 2 {
		t.Fatalf("got %d flow pairs, want 2 (dangling emit and orphan recv dropped): %+v", len(pairs), pairs)
	}
	for _, id := range []uint64{1<<48 | 7, 1<<48 | 8} {
		p, ok := pairs[id]
		if !ok {
			t.Fatalf("missing flow pair for id %d", id)
		}
		if p[0].Pid != 0 || p[1].Pid != 1 {
			t.Fatalf("flow %d should run rank 0 -> rank 1: %+v", id, p)
		}
		if p[0].Name != "A->B" {
			t.Fatalf("flow %d should take the emit's name, got %q", id, p[0].Name)
		}
	}
	for _, r := range recs {
		if r.Cat == "flow" && (r.ID == 1<<48|9 || r.ID == 1<<48|99 || r.ID == 0) {
			t.Fatalf("unpaired flow leaked into the trace: %+v", r)
		}
	}
}

// TestLiveReportDuringRecording is the regression test for the -http
// scrape race: scraping a live snapshot while ranks are still recording
// events and bumping metrics must be race-free (run with -race) and must
// not corrupt the final offline Report.
func TestLiveReportDuringRecording(t *testing.T) {
	s := NewSession(Config{Capacity: 1 << 14})
	const ranks, perRank = 4, 2000

	var recorders, scraper sync.WaitGroup
	stop := make(chan struct{})
	scraper.Add(1)
	go func() { // the scraper: what a live endpoint reads on every GET
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			lr := s.LiveReport()
			if lr.Ranks < 0 || lr.Dropped < 0 {
				t.Errorf("nonsense live report: %+v", lr)
				return
			}
		}
	}()
	for r := 0; r < ranks; r++ {
		recorders.Add(1)
		go func(r int) {
			defer recorders.Done()
			rk := s.Rank(r)
			tasks := counterCell(rk.Metrics(), "tasks")
			lat := rk.Metrics().Histogram("latency_ns")
			for i := 0; i < perRank; i++ {
				rk.Record(Event{Kind: EvExecEnd, Worker: int32(i % 2), TT: 0, Name: "T", Dur: int64(i + 1)})
				tasks.Add(1)
				lat.Observe(int64(i))
			}
		}(r)
	}
	recorders.Wait()
	close(stop)
	scraper.Wait()

	lr := s.LiveReport()
	if lr.Ranks != ranks {
		t.Fatalf("live report ranks = %d, want %d", lr.Ranks, ranks)
	}
	if got := lr.PerRank[0].Counters["tasks"]; got != perRank {
		t.Fatalf("rank 0 tasks counter = %d, want %d", got, perRank)
	}
	// The final offline report still works after concurrent scraping.
	rep := s.Report()
	var tasks int64
	for _, tp := range rep.Templates {
		tasks += tp.Tasks
	}
	if tasks != int64(ranks*perRank) {
		t.Fatalf("final report tasks = %d, want %d", tasks, ranks*perRank)
	}
}
