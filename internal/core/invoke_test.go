package core

import (
	"strings"
	"testing"

	"repro/internal/serde"
)

func TestInvokeCreatesTaskDirectly(t *testing.T) {
	c := newMockCluster(1, true)
	g := c.graphs[0]
	a := NewEdge("a")
	b := NewEdge("b")
	var got float64
	tt := g.AddTT(TTSpec{
		Name:   "join",
		Inputs: []InputSpec{{Edge: a}, {Edge: b}},
		Body: func(ctx *TaskContext) {
			got = ctx.Input(0).(float64) + ctx.Input(1).(float64)
		},
	})
	g.Seal()
	tt.Invoke(KeyOf(serde.Int1{0}), 1.5, 2.5)
	if got != 4 {
		t.Fatalf("invoked task computed %v", got)
	}
}

func TestInvokeWrongArityPanics(t *testing.T) {
	c := newMockCluster(1, true)
	g := c.graphs[0]
	tt := g.AddTT(TTSpec{
		Name:   "x",
		Inputs: []InputSpec{{Edge: NewEdge("e")}},
		Body:   func(*TaskContext) {},
	})
	g.Seal()
	expectPanic(t, "wrong arity", func() {
		tt.Invoke(KeyOf(serde.Int1{0}), 1.0, 2.0)
	})
}

func TestInvokeOnWrongRankPanics(t *testing.T) {
	c := newMockCluster(2, true)
	g := c.graphs[0] // rank 0
	tt := g.AddTT(TTSpec{
		Name:   "x",
		Inputs: []InputSpec{{Edge: NewEdge("e")}},
		Owner:  func(Key) int { return 1 },
		Body:   func(*TaskContext) {},
	})
	g.Seal()
	expectPanic(t, "wrong rank", func() {
		tt.Invoke(KeyOf(serde.Int1{0}), 1.0)
	})
}

func TestInvokeBeforeSealPanics(t *testing.T) {
	c := newMockCluster(1, true)
	tt := c.graphs[0].AddTT(TTSpec{
		Name:   "x",
		Inputs: []InputSpec{{Edge: NewEdge("e")}},
		Body:   func(*TaskContext) {},
	})
	expectPanic(t, "before seal", func() {
		tt.Invoke(KeyOf(serde.Int1{0}), 1.0)
	})
}

func TestDotRendersStructure(t *testing.T) {
	c := newMockCluster(1, true)
	g := c.graphs[0]
	in := NewEdge("input")
	mid := NewEdge("middle")
	g.AddTT(TTSpec{
		Name:    "producer",
		Inputs:  []InputSpec{{Edge: in}},
		Outputs: []OutputSpec{{Edge: mid}},
		Body:    func(*TaskContext) {},
	})
	g.AddTT(TTSpec{
		Name:   "consumer",
		Inputs: []InputSpec{{Edge: mid}},
		Body:   func(*TaskContext) {},
	})
	dot := g.Dot()
	for _, want := range []string{"digraph ttg", `"producer"`, `"consumer"`, `tt0 -> tt1 [label="middle"]`} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot missing %q:\n%s", want, dot)
		}
	}
	// Cyclic template graphs (self-loops) must render too.
	c2 := newMockCluster(1, true)
	g2 := c2.graphs[0]
	e := NewEdge("rec")
	g2.AddTT(TTSpec{
		Name:    "self",
		Inputs:  []InputSpec{{Edge: e}},
		Outputs: []OutputSpec{{Edge: e}},
		Body:    func(*TaskContext) {},
	})
	if !strings.Contains(g2.Dot(), "tt0 -> tt0") {
		t.Errorf("self-loop missing:\n%s", g2.Dot())
	}
}
