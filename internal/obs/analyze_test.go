package obs

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
)

// syntheticStream is a fixed event stream of n tasks on four ranks, in
// ascending TS as Session.Events returns it. Each task is an
// activate/exec-start/exec-end triple of one of three templates, drawn
// 1:2:3, whose bodies take distinct times; every ninth task also
// broadcasts, every other fourth sends, every other seventh matches,
// folds and steals. Tasks overlap, so backlogs build up and the critical
// path has gaps.
func syntheticStream(n int) []Event {
	rng := rand.New(rand.NewSource(41))
	names := []string{"POTRF", "TRSM", "GEMM"}
	evs := make([]Event, 0, 3*n+n/2)
	for i := 0; i < n; i++ {
		tt := int32([]int{0, 1, 1, 2, 2, 2}[rng.Intn(6)])
		rank := int32(i % 4)
		key := fmt.Sprintf("[%d]", i)
		act := int64(i)*700 + rng.Int63n(2000)
		start := act + rng.Int63n(1<<uint(rng.Intn(16)))
		dur := (int64(tt) + 1) * (100 + rng.Int63n(3000))
		evs = append(evs,
			Event{Kind: EvTaskActivate, Rank: rank, Worker: -1, TT: tt, TS: act, Key: key},
			Event{Kind: EvExecStart, Rank: rank, Worker: rank % 2, TT: tt, TS: start, Name: names[tt], Key: key},
			Event{Kind: EvExecEnd, Rank: rank, Worker: rank % 2, TT: tt, TS: start + dur, Dur: dur, Name: names[tt], Key: key})
		switch {
		case i%9 == 0:
			evs = append(evs, Event{Kind: EvBroadcast, Rank: rank, TS: start + dur, Bytes: 3})
		case i%4 == 0:
			evs = append(evs, Event{Kind: EvSend, Rank: rank, TS: start + dur},
				Event{Kind: EvMsgEnqueue, Rank: rank, TS: start + dur + 1, Bytes: 64 + rng.Int63n(1<<17)},
				Event{Kind: EvMsgDeliver, Rank: (rank + 1) % 4, TS: start + dur + 900, Bytes: 64})
		case i%7 == 0:
			evs = append(evs, Event{Kind: EvTerminalMatch, Rank: rank, TS: act - 1},
				Event{Kind: EvReduceFold, Rank: rank, TS: act - 1},
				Event{Kind: EvSteal, Rank: rank, TS: start - 1, Bytes: 1})
		}
	}
	evs = append(evs, Event{Kind: EvFence, Rank: 0, TS: int64(n) * 800})
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	return evs
}

// TestAnalyzePinned pins Analyze on a fixed synthetic stream of 110 tasks
// (one whose templates tie neither in total time nor on the critical
// path, so the report's order is fixed): the Report equals the one
// recorded in testdata/analyze_report.json, and its String() hashes to
// analyzeDigest. Both were recorded when Analyze still merged a
// one-observation histogram per event, so folding each template's
// latencies and the match delays into one histogram apiece must change
// no field and no printed character. They have since lost only the
// broadcast-forward count, which the engine no longer produces.
func TestAnalyzePinned(t *testing.T) {
	const analyzeDigest = "90ae53641df85d3c74efde6d48d2d5fee26ff14213c62e30ab3893917cb0e0cd"
	raw, err := os.ReadFile("testdata/analyze_report.json")
	if err != nil {
		t.Fatal(err)
	}
	var want Report
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := Analyze(syntheticStream(110))
	if !reflect.DeepEqual(*got, want) {
		gotJSON, _ := json.Marshal(got)
		t.Errorf("report differs from the pinned one:\ngot  %s\nwant %s", gotJSON, raw)
	}
	if d := fmt.Sprintf("%x", sha256.Sum256([]byte(got.String()))); d != analyzeDigest {
		t.Errorf("String() digest %s, want %s:\n%s", d, analyzeDigest, got)
	}
}

// TestAnalyzeZeroDurationSpans: Analyze returns on a stream where every
// 97th task runs for no time, and on a single zero-duration span, whose
// end is its own start; its critical path has at most one step per span.
func TestAnalyzeZeroDurationSpans(t *testing.T) {
	evs := syntheticStream(1000)
	spans := 0
	for i, ev := range evs {
		if ev.Kind != EvExecEnd {
			continue
		}
		if spans%97 == 0 {
			evs[i].TS -= ev.Dur
			evs[i].Dur = 0
		}
		spans++
	}
	for _, tc := range []struct {
		name  string
		evs   []Event
		spans int
	}{
		{"every 97th task", evs, spans},
		{"one span", []Event{{Kind: EvExecEnd, Rank: 0, TS: 5, Dur: 0, Name: "T", Key: "[0]"}}, 1},
	} {
		rep := Analyze(tc.evs)
		if n := len(rep.Crit.Steps); n == 0 || n > tc.spans {
			t.Errorf("%s: %d critical-path steps over %d spans", tc.name, n, tc.spans)
		}
	}
}
