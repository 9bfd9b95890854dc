package backend_test

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/serde"
)

// TestDeliverLoopback is the regression test for self-destined Deliver
// calls: normal edge routing splits local targets off before reaching the
// transport, but a keymap evaluated on a remote rank (or a manual
// delivery) can still name the local rank — which used to panic. The
// loopback path must inject into the local graph with the same ownership
// semantics a wire round-trip would produce: a moved value passes through
// exclusively (no copy), a plain value is cloned so the caller's copy
// stays independent.
func TestDeliverLoopback(t *testing.T) {
	rt := backend.New(2, withWorkers(backend.PaRSEC(), 1))
	results := make(chan *vec, 4)
	rt.Run(func(p *backend.Proc) {
		g := p.NewGraph()
		in := core.NewEdge("in")
		g.AddTT(core.TTSpec{
			Name:   "sink",
			Inputs: []core.InputSpec{{Edge: in}},
			Keymap: func(k any) int { return k.(serde.Int1)[0] },
			Body: func(ctx *core.TaskContext) {
				results <- ctx.Input(0).(*vec)
			},
		})
		g.Seal()
		p.Bind(g)
		if p.Rank() == 1 {
			moved := &vec{n: 2, data: []float64{1, 2}}
			p.Deliver(p.Rank(), core.Delivery{
				Targets:   []core.TermTarget{{TT: 0, Term: 0, Keys: []core.Key{core.KeyOf(serde.Int1{1})}}},
				Value:     moved,
				Mode:      core.SendMove,
				OwnsValue: true,
			})
			g.Fence()
			if r := <-results; r != moved {
				t.Error("moved loopback delivery should pass the value through uncopied")
			}

			kept := &vec{n: 2, data: []float64{3, 4}}
			p.Deliver(p.Rank(), core.Delivery{
				Targets: []core.TermTarget{{TT: 0, Term: 0, Keys: []core.Key{core.KeyOf(serde.Int1{1})}}},
				Value:   kept,
			})
			g.Fence()
			r := <-results
			if r == kept {
				t.Error("plain loopback delivery must clone: sender may keep mutating")
			}
			if r.data[0] != 3 || r.data[1] != 4 {
				t.Errorf("cloned loopback payload = %v", r.data)
			}
			if n := p.Tracer().Snapshot().LoopbackDeliveries; n != 2 {
				t.Errorf("LoopbackDeliveries = %d, want 2", n)
			}
		} else {
			g.Fence()
			g.Fence()
		}
	})
	rt.Shutdown()
}
