package core

import (
	"testing"

	"repro/internal/serde"
)

// Misuse must fail loudly at construction or delivery time; these tests
// pin the panics the engine promises.

func expectPanic(t *testing.T, msg string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic: %s", msg)
		}
	}()
	fn()
}

func TestAddTTAfterSealPanics(t *testing.T) {
	c := newMockCluster(1, true)
	g := c.graphs[0]
	in := NewEdge("in")
	g.AddTT(TTSpec{Name: "a", Inputs: []InputSpec{{Edge: in}}, Body: func(*TaskContext) {}})
	g.Seal()
	expectPanic(t, "AddTT after Seal", func() {
		g.AddTT(TTSpec{Name: "b", Inputs: []InputSpec{{Edge: in}}, Body: func(*TaskContext) {}})
	})
}

func TestTTWithoutInputsPanics(t *testing.T) {
	c := newMockCluster(1, true)
	expectPanic(t, "no inputs", func() {
		c.graphs[0].AddTT(TTSpec{Name: "x", Body: func(*TaskContext) {}})
	})
}

func TestTTWithoutBodyPanics(t *testing.T) {
	c := newMockCluster(1, true)
	expectPanic(t, "no body", func() {
		c.graphs[0].AddTT(TTSpec{Name: "x", Inputs: []InputSpec{{Edge: NewEdge("e")}}})
	})
}

func TestInputWithoutEdgePanics(t *testing.T) {
	c := newMockCluster(1, true)
	expectPanic(t, "input without edge", func() {
		c.graphs[0].AddTT(TTSpec{Name: "x", Inputs: []InputSpec{{}}, Body: func(*TaskContext) {}})
	})
}

func TestSealWithUnboundOutputPanics(t *testing.T) {
	c := newMockCluster(1, true)
	g := c.graphs[0]
	g.AddTT(TTSpec{
		Name:    "x",
		Inputs:  []InputSpec{{Edge: NewEdge("in")}},
		Outputs: []OutputSpec{{}},
		Body:    func(*TaskContext) {},
	})
	expectPanic(t, "unbound output", g.Seal)
}

func TestSeedBeforeSealPanics(t *testing.T) {
	c := newMockCluster(1, true)
	g := c.graphs[0]
	in := NewEdge("in")
	g.AddTT(TTSpec{Name: "x", Inputs: []InputSpec{{Edge: in}}, Body: func(*TaskContext) {}})
	expectPanic(t, "seed before seal", func() {
		g.Seed(in, serde.Int1{0}, 1.0)
	})
}

func TestStreamControlOnPlainTerminalPanics(t *testing.T) {
	c := newMockCluster(1, true)
	g := c.graphs[0]
	in := NewEdge("in")
	g.AddTT(TTSpec{Name: "x", Inputs: []InputSpec{{Edge: in}}, Body: func(*TaskContext) {}})
	g.Seal()
	expectPanic(t, "finalize non-streaming", func() {
		g.FinalizeSeed(in, KeyOf(serde.Int1{0}))
	})
}

func TestBroadcastMultiLengthMismatchPanics(t *testing.T) {
	c := newMockCluster(1, true)
	g := c.graphs[0]
	in := NewEdge("in")
	out := NewEdge("out")
	g.AddTT(TTSpec{
		Name:    "x",
		Inputs:  []InputSpec{{Edge: in}},
		Outputs: []OutputSpec{{Edge: out}},
		Body: func(ctx *TaskContext) {
			ctx.BroadcastEdges([]*Edge{out}, [][]Key{{KeyOf(serde.Int1{0})}, {KeyOf(serde.Int1{1})}}, 1.0, SendCopy)
		},
	})
	g.AddTT(TTSpec{Name: "sink", Inputs: []InputSpec{{Edge: out}}, Body: func(*TaskContext) {}})
	g.Seal()
	expectPanic(t, "length mismatch", func() {
		g.Seed(in, serde.Int1{0}, 1.0)
	})
}

func TestPendingShellsVisible(t *testing.T) {
	c := newMockCluster(1, true)
	g := c.graphs[0]
	a := NewEdge("a")
	b := NewEdge("b")
	tt := g.AddTT(TTSpec{
		Name:   "join",
		Inputs: []InputSpec{{Edge: a}, {Edge: b}},
		Body:   func(*TaskContext) {},
	})
	g.Seal()
	g.Seed(a, serde.Int1{0}, 1.0)
	if tt.PendingShells() != 1 {
		t.Fatalf("pending = %d, want 1", tt.PendingShells())
	}
	g.Seed(b, serde.Int1{0}, 2.0)
	if tt.PendingShells() != 0 {
		t.Fatalf("pending = %d after completion, want 0", tt.PendingShells())
	}
}

func TestAccessors(t *testing.T) {
	c := newMockCluster(2, true)
	g := c.graphs[0]
	in := NewEdge("in")
	out := NewEdge("out")
	tt := g.AddTT(TTSpec{
		Name:    "acc",
		Inputs:  []InputSpec{{Edge: in}},
		Outputs: []OutputSpec{{Edge: out}},
		Body:    func(*TaskContext) {},
	})
	g.AddTT(TTSpec{Name: "sink", Inputs: []InputSpec{{Edge: out}}, Body: func(*TaskContext) {}})
	g.Seal()
	if tt.Name() != "acc" || tt.ID() != 0 || tt.NumInputs() != 1 || tt.NumOutputs() != 1 {
		t.Fatalf("accessors wrong: %s %d %d %d", tt.Name(), tt.ID(), tt.NumInputs(), tt.NumOutputs())
	}
	if g.NumTTs() != 2 || g.TTByID(0) != tt {
		t.Fatalf("graph accessors wrong")
	}
	if in.Name() != "in" {
		t.Fatalf("edge name = %q", in.Name())
	}
	if !g.Sealed() {
		t.Fatal("Sealed() false after Seal")
	}
	if g.Rank() != 0 || g.Size() != 2 {
		t.Fatalf("rank/size = %d/%d", g.Rank(), g.Size())
	}
	// Default keymap must be in range.
	for k := 0; k < 50; k++ {
		if o := tt.Owner(KeyOf(serde.Int1{k})); o < 0 || o >= 2 {
			t.Fatalf("default keymap out of range: %d", o)
		}
	}
}

func TestMoreThan64InputsPanics(t *testing.T) {
	c := newMockCluster(1, true)
	inputs := make([]InputSpec, 65)
	for i := range inputs {
		inputs[i] = InputSpec{Edge: NewEdge("e")}
	}
	expectPanic(t, ">64 inputs", func() {
		c.graphs[0].AddTT(TTSpec{Name: "wide", Inputs: inputs, Body: func(*TaskContext) {}})
	})
}
