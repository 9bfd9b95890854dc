package backend_test

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/serde"
)

// TestScrapeAfterFencePrintsEachSeriesOnce scrapes a traced two-rank run
// the way `ttg-bench trace -http` serves it — the session's registries
// plus the runtime's collectors — after the fence. Two of each rank's
// joins get one input of two, so shells stay pending, and every join
// feeds a commutative stream on rank 1. Every series must be printed
// once, and the pending levels must read what the graphs hold.
func TestScrapeAfterFencePrintsEachSeriesOnce(t *testing.T) {
	const ranks, keys, fed = 2, 8, 4
	session := obs.NewSession(obs.Config{})
	opts := withWorkers(backend.PaRSEC(), 1)
	opts.Obs = session
	rt := backend.New(ranks, opts)
	exp := &live.Exporter{Session: session, Collectors: rt.LiveCollectors()}
	var mu sync.Mutex
	graphs := make([]*core.Graph, ranks)
	var total float64
	rt.Run(func(p *backend.Proc) {
		g := p.NewGraph()
		a, b, sum := core.NewEdge("a"), core.NewEdge("b"), core.NewEdge("sum")
		g.AddTT(core.TTSpec{
			Name:    "join",
			Inputs:  []core.InputSpec{{Edge: a}, {Edge: b}},
			Outputs: []core.OutputSpec{{Edge: sum}},
			Keymap:  func(k any) int { return k.(serde.Int1)[0] % ranks },
			Body: func(ctx *core.TaskContext) {
				ctx.SendEdge(sum, core.KeyOf(serde.Int1{0}), ctx.Input(0).(float64)+ctx.Input(1).(float64), core.SendCopy)
			},
		})
		g.AddTT(core.TTSpec{
			Name: "total",
			Inputs: []core.InputSpec{{
				Edge:        sum,
				Reducer:     func(acc, v any) any { s, _ := acc.(float64); return s + v.(float64) },
				StreamSize:  func(core.Key) int { return fed },
				Commutative: true,
			}},
			Keymap: func(any) int { return 1 },
			Body: func(ctx *core.TaskContext) {
				mu.Lock()
				total = ctx.Input(0).(float64)
				mu.Unlock()
			},
		})
		g.Seal()
		p.Bind(g)
		if p.Rank() == 0 {
			for k := 0; k < keys; k++ {
				g.Seed(a, serde.Int1{k}, float64(k))
			}
			for k := 0; k < fed; k++ {
				g.Seed(b, serde.Int1{k}, 1.0)
			}
		}
		g.Fence()
		mu.Lock()
		graphs[p.Rank()] = g
		mu.Unlock()
	})
	if want := float64(0 + 1 + 2 + 3 + fed); total != want {
		t.Fatalf("stream folded to %v, want %v", total, want)
	}

	var buf bytes.Buffer
	if err := exp.Export(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	values := map[string]string{} // series (name and labels) -> value
	for _, ln := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(ln, "#") {
			continue
		}
		i := strings.LastIndexByte(ln, ' ')
		if _, dup := values[ln[:i]]; dup {
			t.Errorf("series %s printed twice", ln[:i])
		}
		values[ln[:i]] = ln[i+1:]
	}
	var pending int64
	for r, g := range graphs {
		pending += g.PendingTaskCount()
		for name, want := range map[string]int64{
			"core_pending_shells":     g.PendingTaskCount(),
			"reduce_pending_partials": g.PendingReductions(),
			"data_tracked_live":       g.LiveTrackedHandles(),
		} {
			series := fmt.Sprintf(`%s{rank="%d"}`, name, r)
			if got := values[series]; got != strconv.FormatInt(want, 10) {
				t.Errorf("%s = %q, the graph holds %d", series, got, want)
			}
		}
	}
	if pending != keys-fed {
		t.Errorf("%d shells pending after the fence, want %d", pending, keys-fed)
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}
