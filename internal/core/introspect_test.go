package core

import (
	"testing"

	"repro/internal/serde"
)

// TestWireHeaderFlowRoundTrip checks the causal-span extension of the
// packed header byte: a nonzero Flow survives encode/decode for every
// control kind and send mode, and an untraced delivery (Flow == 0) emits
// exactly the same bytes as before the extension — zero wire cost when
// tracing is off.
func TestWireHeaderFlowRoundTrip(t *testing.T) {
	targets := []TermTarget{{TT: 3, Term: 1, Keys: []Key{KeyOf(serde.Int2{1, 2})}}}
	for _, ctl := range []ControlKind{CtrlNone, CtrlFinalize, CtrlSetSize} {
		for _, m := range []SendMode{SendCopy, SendBorrow, SendMove} {
			for _, flow := range []uint64{0, 1, 1<<48 | 77, 1<<63 + 5} {
				b := serde.NewBuffer(64)
				EncodeHeader(b, Delivery{Targets: targets, Control: ctl, N: 1, Mode: m, Flow: flow})
				got := DecodeHeader(serde.FromBytes(b.Bytes()))
				if got.Control != ctl || got.Mode != m || got.Flow != flow {
					t.Fatalf("round trip ctl=%v mode=%v flow=%d: got %+v", ctl, m, flow, got)
				}
			}
		}
	}

	// Untraced headers must be byte-identical to traced-off encodes.
	plain := serde.NewBuffer(64)
	EncodeHeader(plain, Delivery{Targets: targets, N: 1})
	tagged := serde.NewBuffer(64)
	EncodeHeader(tagged, Delivery{Targets: targets, N: 1, Flow: 42})
	if tagged.Len() <= plain.Len() {
		t.Fatalf("flow id should extend the header: plain=%d tagged=%d", plain.Len(), tagged.Len())
	}
	d := Delivery{Targets: targets, N: 1}
	base := HeaderWireSize(d)
	d.Flow = 1<<48 | 42
	if got := HeaderWireSize(d); got != base {
		t.Fatalf("HeaderWireSize must exclude the flow id (sim timing invariance): got %d, want %d", got, base)
	}
}

// TestPendingTasksClassification drives the match-table introspection the
// graph doctor consumes: partially filled shells are classified by which
// input terminal is unfilled, which edge feeds it, and which producer
// template should have sent the message.
func TestPendingTasksClassification(t *testing.T) {
	c := newMockCluster(1, true)
	g := c.graphs[0]
	in := NewEdge("in")
	aEdge := NewEdge("a_edge")
	bEdge := NewEdge("b_edge")
	g.AddTT(TTSpec{
		Name:    "SRC",
		Inputs:  []InputSpec{{Edge: in}},
		Outputs: []OutputSpec{{Edge: aEdge}}, // never feeds b_edge
		Body:    func(ctx *TaskContext) { ctx.SendEdge(aEdge, ctx.Key(), 1, SendCopy) },
	})
	g.AddTT(TTSpec{
		Name:   "JOIN",
		Inputs: []InputSpec{{Edge: aEdge}, {Edge: bEdge}},
		Body:   func(ctx *TaskContext) {},
	})
	g.Seal()

	if n := g.PendingTaskCount(); n != 0 {
		t.Fatalf("pending before any send = %d", n)
	}

	// Fill only JOIN's first input: the shell pends on b_edge.
	g.Seed(in, serde.Int1{7}, 1)
	if n := g.PendingTaskCount(); n != 1 {
		t.Fatalf("pending = %d, want 1", n)
	}
	tasks, total := g.PendingTasks(0)
	if total != 1 || len(tasks) != 1 {
		t.Fatalf("PendingTasks: %d sampled, total %d", len(tasks), total)
	}
	pt := tasks[0]
	if pt.TT != "JOIN" || len(pt.Missing) != 1 {
		t.Fatalf("classified %+v", pt)
	}
	mi := pt.Missing[0]
	if mi.Term != 1 || mi.Edge != "b_edge" {
		t.Fatalf("missing input: %+v", mi)
	}
	if len(mi.Producers) != 0 {
		t.Fatalf("b_edge has no producer terminal, got %+v", mi.Producers)
	}

	// Fill only the second input for another key: blame points at SRC.
	g.Seed(bEdge, serde.Int1{8}, 2)
	tasks, total = g.PendingTasks(0)
	if total != 2 {
		t.Fatalf("total = %d, want 2", total)
	}
	var found bool
	for _, pt := range tasks {
		if pt.Key != "[8]" {
			continue
		}
		found = true
		if len(pt.Missing) != 1 || pt.Missing[0].Term != 0 || pt.Missing[0].Edge != "a_edge" {
			t.Fatalf("key [8] missing: %+v", pt.Missing)
		}
		ps := pt.Missing[0].Producers
		if len(ps) != 1 || ps[0].TT != "SRC" || ps[0].Rank != 0 {
			t.Fatalf("producers: %+v", ps)
		}
	}
	if !found {
		t.Fatalf("no pending shell for key [8]: %+v", tasks)
	}

	// Sampling cap: with two pending shells, maxPerTT=1 samples one but
	// still reports the true total.
	sampled, total := g.PendingTasks(1)
	if len(sampled) != 1 || total != 2 {
		t.Fatalf("capped sample: %d sampled, total %d", len(sampled), total)
	}

	// Completing the matches drains the pending count to zero.
	g.Seed(bEdge, serde.Int1{7}, 2)
	g.Seed(in, serde.Int1{8}, 1)
	if n := g.PendingTaskCount(); n != 0 {
		t.Fatalf("pending after completion = %d", n)
	}
	if tasks, total := g.PendingTasks(0); total != 0 || len(tasks) != 0 {
		t.Fatalf("PendingTasks after completion: %v (total %d)", tasks, total)
	}
}
