package backend

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/serde"
)

// TestLocalTasksSkipTheCoalescer: a work unit that queued no remote send
// must get past its end-of-unit flush on the queuedMsgs gate alone. The
// test holds every peer-frame lock for the whole run, so a task end, idle
// hook or fence entry that reached for one would wedge; a panel-style
// graph (root fans out to a row of tasks that join in a sink) whose keys
// all stay on their own rank must still finish, with nothing on the wire.
func TestLocalTasksSkipTheCoalescer(t *testing.T) {
	const fan = 64
	rt := New(2, Options{Name: "test", WorkersPerRank: 2, Policy: sched.PolicyStealPrio, TracksData: true})
	for _, p := range rt.procs {
		for i := range p.coal.peers {
			p.coal.peers[i].mu.Lock()
		}
	}
	var joined atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Run(func(p *Proc) {
			me := p.Rank()
			g := p.NewGraph()
			start, row, join := core.NewEdge("start"), core.NewEdge("row"), core.NewEdge("join")
			g.AddTT(core.TTSpec{
				Name:    "root",
				Inputs:  []core.InputSpec{{Edge: start}},
				Outputs: []core.OutputSpec{{Edge: row}},
				Keymap:  func(k any) int { return k.(serde.Int2)[0] },
				Body: func(ctx *core.TaskContext) {
					for i := 0; i < fan; i++ {
						ctx.Send(0, serde.Int2{me, i}, 1.0)
					}
				},
			})
			g.AddTT(core.TTSpec{
				Name:    "mid",
				Inputs:  []core.InputSpec{{Edge: row}},
				Outputs: []core.OutputSpec{{Edge: join}},
				Keymap:  func(k any) int { return k.(serde.Int2)[0] },
				Body: func(ctx *core.TaskContext) {
					ctx.Send(0, serde.Int2{me, 0}, ctx.Input(0))
				},
			})
			g.AddTT(core.TTSpec{
				Name: "sink",
				Inputs: []core.InputSpec{{
					Edge: join,
					Reducer: func(acc, v any) any {
						if acc == nil {
							return v
						}
						return acc.(float64) + v.(float64)
					},
					StreamSize: func(any) int { return fan },
				}},
				Keymap: func(k any) int { return k.(serde.Int2)[0] },
				Body:   func(ctx *core.TaskContext) { joined.Add(int64(ctx.Input(0).(float64))) },
			})
			g.Seal()
			p.Bind(g)
			g.Seed(start, serde.Int2{me, 0}, 0.0)
			g.Fence()
		})
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("a task that sent nothing remote blocked on a peer-frame lock")
	}
	if got := joined.Load(); got != 2*fan {
		t.Fatalf("sinks joined %d contributions, want %d", got, 2*fan)
	}
	for _, p := range rt.procs {
		if s := p.tr.Snapshot(); s.WirePackets != 0 || s.CoalescedMsgs != 0 || s.MsgsSent != 0 {
			t.Fatalf("rank %d: %d wire packets, %d coalesced and %d logical messages from a rank-local graph",
				p.rank, s.WirePackets, s.CoalescedMsgs, s.MsgsSent)
		}
	}
}
