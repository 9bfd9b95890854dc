package backend_test

import (
	"bytes"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/apps/cholesky"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/serde"
	"repro/internal/tile"
	"repro/internal/trace"
	"repro/ttg"
)

// TestOneCounterPlane pins that an event is counted in one place and every
// export reads that place. The agree cases run a traced two-rank Cholesky
// (2 KiB tiles: gather sends, views, copies avoided, steals) on both
// presets and once with each rank its own runtime over a loopback TCP
// mesh, while a goroutine scrapes /metrics throughout — under -race that
// is the read-through running against incrementing workers. Afterwards
// every name the trace table exports must read, per rank and summed,
// exactly what the ranks' Stats() return. The live case is what a mirror
// filled at fence cannot do: a task body scraping mid-run already sees the
// send that caused it.
func TestOneCounterPlane(t *testing.T) {
	for _, tc := range []struct {
		name      string
		preset    backend.Options
		transport string
	}{
		{"agree/parsec", backend.PaRSEC(), "simnet"},
		{"agree/madness", backend.MADNESS(), "simnet"},
		{"agree/tcp", backend.PaRSEC(), "tcp"},
	} {
		t.Run(tc.name, func(t *testing.T) { countersAgree(t, tc.preset, tc.transport) })
	}
	t.Run("live", countersLive)
}

func countersAgree(t *testing.T, preset backend.Options, transport string) {
	const ranks = 2
	session := obs.NewSession(obs.Config{})
	opts := withWorkers(preset, 2)
	opts.Obs = session
	var mu sync.Mutex
	procs := map[int]*backend.Proc{}

	stop, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		exp := &live.Exporter{Session: session}
		for {
			select {
			case <-stop:
				return
			default:
				if err := exp.Export(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	runOn(t, transport, ranks, opts, func(p *backend.Proc) {
		mu.Lock()
		procs[p.Rank()] = p
		mu.Unlock()
		g := ttg.NewGraphOn(p)
		app := cholesky.Build(g, cholesky.Options{Grid: tile.Grid{N: 128, NB: 16}, Priorities: true})
		g.MakeExecutable()
		app.Seed()
		g.Fence()
	})
	close(stop)
	<-scraped

	// The runtimes have shut down, so nothing moves between the reads.
	rep := session.Report()
	var sum trace.Snapshot
	for r := 0; r < ranks; r++ {
		s := procs[r].Stats()
		sum = sum.Add(s)
		names := 0
		s.Each(func(name string, v int64) {
			names++
			if got, ok := rep.PerRank[r].Counters[name]; !ok || got != v {
				t.Errorf("rank %d %s: report reads %d (present %v), Stats() %d", r, name, got, ok, v)
			}
		})
		if got := len(rep.PerRank[r].Counters); got != names {
			t.Errorf("rank %d: report holds %d counters, the name table exports %d", r, got, names)
		}
	}
	sum.Each(func(name string, v int64) {
		if got := rep.Metrics.Counters[name]; got != v {
			t.Errorf("%s: merged report reads %d, summed Stats() %d", name, got, v)
		}
	})
	if sum.TasksExecuted == 0 || sum.GatherSends == 0 || sum.ViewDecodes == 0 || sum.DataCopies+sum.CopiesAvoided == 0 {
		t.Errorf("the run did not exercise the counters it should: %s", sum)
	}
}

// countersLive sends one 2 KiB tile from rank 0 to a task on rank 1 whose
// body scrapes /metrics: the gather send that made the task runnable is
// already there, though no fence has returned.
func countersLive(t *testing.T) {
	session := obs.NewSession(obs.Config{})
	exp := &live.Exporter{Session: session}
	opts := withWorkers(backend.PaRSEC(), 1)
	opts.Obs = session
	var seen int64 = -1
	backend.New(2, opts).Run(func(p *backend.Proc) {
		g := p.NewGraph()
		in, out := core.NewEdge("in"), core.NewEdge("out")
		g.AddTT(core.TTSpec{
			Name:    "src",
			Inputs:  []core.InputSpec{{Edge: in}},
			Outputs: []core.OutputSpec{{Edge: out}},
			Keymap:  func(any) int { return 0 },
			Body: func(ctx *core.TaskContext) {
				ctx.SendEdge(out, ctx.Key(), tile.New(16, 16), core.SendMove)
			},
		})
		g.AddTT(core.TTSpec{
			Name:   "dst",
			Inputs: []core.InputSpec{{Edge: out}},
			Keymap: func(any) int { return 1 },
			Body: func(ctx *core.TaskContext) {
				var buf bytes.Buffer
				if err := exp.Export(&buf); err != nil {
					t.Error(err)
					return
				}
				m := regexp.MustCompile(`(?m)^serde_gather_sends_total\{rank="0"\} (\d+)$`).FindSubmatch(buf.Bytes())
				if m == nil {
					t.Errorf("no serde_gather_sends_total series for rank 0 in:\n%s", buf.String())
					return
				}
				seen, _ = strconv.ParseInt(string(m[1]), 10, 64)
			},
		})
		g.Seal()
		p.Bind(g)
		if p.Rank() == 0 {
			g.Seed(in, serde.Int1{0}, 0.0)
		}
		g.Fence()
	})
	if seen != 1 {
		t.Fatalf("mid-run scrape read serde_gather_sends_total{rank=0} = %d, want 1 (the send that started the scraping task)", seen)
	}
}

// TestStealHitFromCounters fills a 16-event buffer before the first steal
// and then forces 32 of them: the fork task hands 64 leaves to its own
// worker's queues and blocks until 32 have run, which only the other
// worker, stealing, can do. The -stats sched: line must divide counted
// steals by counted attempts — the steal events it used to count were
// dropped.
func TestStealHitFromCounters(t *testing.T) {
	const leaves, wait = 64, 32
	session := obs.NewSession(obs.Config{Capacity: 16})
	opts := withWorkers(backend.PaRSEC(), 2)
	opts.Obs = session
	var ran atomic.Int64
	enough := make(chan struct{})
	var stolen int64
	backend.New(1, opts).Run(func(p *backend.Proc) {
		g := p.NewGraph()
		in, out := core.NewEdge("in"), core.NewEdge("out")
		g.AddTT(core.TTSpec{
			Name:    "fork",
			Inputs:  []core.InputSpec{{Edge: in}},
			Outputs: []core.OutputSpec{{Edge: out}},
			Body: func(ctx *core.TaskContext) {
				for k := 0; k < leaves; k++ {
					ctx.SendEdge(out, core.KeyOf(serde.Int1{k}), 0.0, core.SendCopy)
				}
				<-enough
			},
		})
		g.AddTT(core.TTSpec{
			Name:   "leaf",
			Inputs: []core.InputSpec{{Edge: out}},
			Body: func(*core.TaskContext) {
				if ran.Add(1) == wait {
					close(enough)
				}
			},
		})
		g.Seal()
		p.Bind(g)
		g.Seed(in, serde.Int1{0}, 0.0)
		g.Fence()
		stolen = p.Stats().TasksStolen
	})
	rep := session.Report()
	if rep.Dropped == 0 || stolen < wait || rep.Steals >= stolen {
		t.Fatalf("fixture: dropped=%d counted steals=%d steal events=%d; want drops, >= %d steals, fewer events than steals",
			rep.Dropped, stolen, rep.Steals, wait)
	}
	m := regexp.MustCompile(`(?m)^sched: steal-hit=\S+ \((\d+)/(\d+)\)`).FindStringSubmatch(rep.String())
	if m == nil {
		t.Fatalf("no sched: line in:\n%s", rep)
	}
	if want := fmt.Sprint(stolen); m[1] != want {
		t.Errorf("sched: line counts %s steals, Stats().TasksStolen is %s", m[1], want)
	}
}

// TestStatsCountBroadcastOnce: a traced 4-rank run in which one task
// broadcasts one 32 KiB tile to a key on each of the 3 other ranks. The
// -stats report must count that broadcast once, and its enqueued messages
// must be the packets the ranks sent: one per destination, and no
// point-to-point task send.
func TestStatsCountBroadcastOnce(t *testing.T) {
	const ranks = 4
	session := obs.NewSession(obs.Config{})
	o := withWorkers(backend.PaRSEC(), 1)
	o.Obs = session
	var sent atomic.Int64
	backend.New(ranks, o).Run(func(p *backend.Proc) {
		g := p.NewGraph()
		in, out := core.NewEdge("in"), core.NewEdge("out")
		g.AddTT(core.TTSpec{
			Name:    "src",
			Inputs:  []core.InputSpec{{Edge: in}},
			Outputs: []core.OutputSpec{{Edge: out}},
			Keymap:  func(any) int { return 0 },
			Body: func(ctx *core.TaskContext) {
				keys := []core.Key{core.KeyOf(serde.Int1{1}), core.KeyOf(serde.Int1{2}), core.KeyOf(serde.Int1{3})}
				ctx.BroadcastEdge(out, keys, tile.New(64, 64), core.SendCopy)
			},
		})
		g.AddTT(core.TTSpec{
			Name:   "dst",
			Inputs: []core.InputSpec{{Edge: out}},
			Keymap: func(k any) int { return k.(serde.Int1)[0] },
			Body:   func(*core.TaskContext) {},
		})
		g.Seal()
		p.Bind(g)
		if p.Rank() == 0 {
			g.Seed(in, serde.Int1{0}, 0.0)
		}
		g.Fence()
		sent.Add(p.Stats().MsgsSent)
	})
	rep := session.Report()
	if sent.Load() != ranks-1 {
		t.Errorf("ranks sent %d packets, want %d", sent.Load(), ranks-1)
	}
	if rep.Msgs.Bcasts != 1 || rep.Msgs.Sends != 0 || rep.Msgs.Enqueued != sent.Load() {
		t.Errorf("report counts bcasts=%d sends=%d enqueued=%d, want bcasts=1 sends=0 enqueued=%d",
			rep.Msgs.Bcasts, rep.Msgs.Sends, rep.Msgs.Enqueued, sent.Load())
	}
	if !strings.Contains(rep.String(), " bcasts=1\n") {
		t.Errorf("stats block does not print bcasts=1:\n%s", rep)
	}
}
