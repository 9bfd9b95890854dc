package backend_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/serde"
)

func TestBindTwicePanics(t *testing.T) {
	rt := backend.New(1, withWorkers(backend.PaRSEC(), 1))
	rt.Run(func(p *backend.Proc) {
		g := p.NewGraph()
		in := core.NewEdge("in")
		g.AddTT(core.TTSpec{Name: "x", Inputs: []core.InputSpec{{Edge: in}}, Body: func(*core.TaskContext) {}})
		g.Seal()
		p.Bind(g)
		defer func() {
			if recover() == nil {
				t.Error("second Bind did not panic")
			}
		}()
		p.Bind(g)
	})
}

func TestBindUnsealedPanics(t *testing.T) {
	rt := backend.New(1, withWorkers(backend.PaRSEC(), 1))
	rt.Run(func(p *backend.Proc) {
		g := p.NewGraph()
		in := core.NewEdge("in")
		g.AddTT(core.TTSpec{Name: "x", Inputs: []core.InputSpec{{Edge: in}}, Body: func(*core.TaskContext) {}})
		defer func() {
			if recover() == nil {
				t.Error("Bind before Seal did not panic")
			}
			g.Seal()
			p.Bind(g)
		}()
		p.Bind(g)
	})
}

// TestDeliverToSelfPanics pins the Executor contract that core never
// addresses its own rank: it lands local values itself, so a
// self-addressed Deliver is a caller bug and panics, naming the contract.
func TestDeliverToSelfPanics(t *testing.T) {
	rt := backend.New(2, withWorkers(backend.PaRSEC(), 1))
	rt.Run(func(p *backend.Proc) {
		g := p.NewGraph()
		in := core.NewEdge("in")
		g.AddTT(core.TTSpec{Name: "x", Inputs: []core.InputSpec{{Edge: in}}, Body: func(*core.TaskContext) {}})
		g.Seal()
		p.Bind(g)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "core.Executor.Deliver never addresses the local rank") {
					t.Errorf("rank %d: self-addressed Deliver: panic %q, want one naming the Executor contract", p.Rank(), msg)
				}
			}()
			p.Deliver(p.Rank(), core.Delivery{
				Targets: []core.TermTarget{{TT: 0, Term: 0, Keys: []core.Key{core.KeyOf(serde.Int1{0})}}},
				Value:   &vec{n: 1, data: []float64{1}},
			})
		}()
		g.Fence()
	})
	rt.Shutdown()
}

func TestProcAccessors(t *testing.T) {
	rt := backend.New(3, withWorkers(backend.PaRSEC(), 2))
	seen := map[int]bool{}
	var mu sync.Mutex
	rt.Run(func(p *backend.Proc) {
		g := p.NewGraph()
		in := core.NewEdge("in")
		g.AddTT(core.TTSpec{Name: "x", Inputs: []core.InputSpec{{Edge: in}}, Body: func(*core.TaskContext) {}})
		g.Seal()
		p.Bind(g)
		mu.Lock()
		seen[p.Rank()] = true
		mu.Unlock()
		if p.Size() != 3 || p.Workers() != 2 {
			t.Errorf("size/workers = %d/%d", p.Size(), p.Workers())
		}
		if !p.TracksData() {
			t.Error("parsec backend should track data")
		}
		g.Fence()
	})
	if len(seen) != 3 {
		t.Fatalf("ranks seen: %v", seen)
	}
	if rt.Ranks() != 3 || rt.Options().Name != "parsec" {
		t.Fatalf("runtime accessors wrong")
	}
}

// TestStressManyRanksLatencyRace floods an 8-rank fabric with fine-grained
// cross-rank traffic while the receive-delay decorator slows every comm
// thread; run with -race this doubles as the backend's concurrency audit.
func TestStressManyRanksLatencyRace(t *testing.T) {
	const ranks = 8
	const keys = 200
	var count int64
	var mu sync.Mutex
	runOn(t, "delayed", ranks, withWorkers(backend.PaRSEC(), 2), func(p *backend.Proc) {
		g := p.NewGraph()
		e := core.NewEdge("ring")
		g.AddTT(core.TTSpec{
			Name:    "hop",
			Inputs:  []core.InputSpec{{Edge: e}},
			Outputs: []core.OutputSpec{{Edge: e}},
			Keymap:  func(k any) int { return (k.(serde.Int2)[0] + k.(serde.Int2)[1]) % ranks },
			Body: func(ctx *core.TaskContext) {
				k := ctx.Key().Value().(serde.Int2)
				mu.Lock()
				count++
				mu.Unlock()
				if k[1] < 7 {
					ctx.SendEdge(e, core.KeyOf(serde.Int2{k[0], k[1] + 1}), ctx.Input(0), core.SendCopy)
				}
			},
		})
		g.Seal()
		p.Bind(g)
		if p.Rank() == 0 {
			for k := 0; k < keys; k++ {
				g.Seed(e, serde.Int2{k, 0}, float64(k))
			}
		}
		g.Fence()
	})
	if count != keys*8 {
		t.Fatalf("hops = %d, want %d", count, keys*8)
	}
}
