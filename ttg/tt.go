package ttg

import (
	"repro/internal/core"
	"repro/internal/serde"
)

// TT is a handle to a registered template task.
type TT struct {
	tt *core.TT
}

// Name returns the template task's diagnostic name.
func (t TT) Name() string { return t.tt.Name() }

// Options carry the optional per-template maps of the paper: the process
// map assigning task IDs to ranks and the priority map assigning task IDs
// to scheduling priorities. Slots, Index and KeyAt declare the box the
// template's task IDs fill, so that those keys match in flat join slots
// rather than a hashed table.
type Options[K comparable] struct {
	// Keymap maps a task ID to the rank that executes it. Defaults to
	// hash(key) mod ranks.
	Keymap func(K) int
	// Priomap maps a task ID to a priority; larger runs first.
	Priomap func(K) int64
	// Slots is the size of the key box; Index numbers a task ID in
	// [0, Slots) and returns -1 for one outside the box, and KeyAt
	// inverts Index. Keys outside the box still match. A box is for
	// templates whose every key runs once, with no streaming input.
	Slots int
	Index func(K) int
	KeyAt func(int) K
}

// spec fills the options' part of a template spec.
func (o Options[K]) spec(s core.TTSpec) core.TTSpec {
	if o.Keymap != nil {
		f := o.Keymap
		s.Owner = func(k core.Key) int { return f(core.Unpack[K](k)) }
	}
	if o.Priomap != nil {
		f := o.Priomap
		s.Priomap = func(k core.Key) int64 { return f(core.Unpack[K](k)) }
	}
	if o.Slots != 0 || o.Index != nil || o.KeyAt != nil {
		d := &core.DenseKeys{Slots: o.Slots}
		if f := o.Index; f != nil {
			d.Index = func(k core.Key) int { return f(core.Unpack[K](k)) }
		}
		if f := o.KeyAt; f != nil {
			d.KeyAt = func(i int) core.Key { return core.Pack(f(i)) }
		}
		s.Dense = d
	}
	return s
}

func firstOpt[K comparable](opts []Options[K]) Options[K] {
	if len(opts) > 0 {
		return opts[0]
	}
	return Options[K]{}
}

// MakeTT1 registers a template task with one input terminal, the analog of
// ttg::make_tt over a unary lambda. The body receives the typed context
// (task ID, rank info, send operations) and the input value.
func MakeTT1[K comparable, I0 any](
	g *Graph, name string,
	in0 In[K, I0],
	outs []core.OutputSpec,
	body func(x *Ctx[K], a I0),
	opts ...Options[K],
) TT {
	tt := g.core.AddTT(firstOpt(opts).spec(core.TTSpec{
		Name:    name,
		Inputs:  []core.InputSpec{in0.spec},
		Outputs: outs,
		Body: func(c *core.TaskContext) {
			body((*Ctx[K])(c), input[I0](c, 0))
		},
	}))
	return TT{tt: tt}
}

// MakeTT2 registers a template task with two input terminals.
func MakeTT2[K comparable, I0, I1 any](
	g *Graph, name string,
	in0 In[K, I0], in1 In[K, I1],
	outs []core.OutputSpec,
	body func(x *Ctx[K], a I0, b I1),
	opts ...Options[K],
) TT {
	tt := g.core.AddTT(firstOpt(opts).spec(core.TTSpec{
		Name:    name,
		Inputs:  []core.InputSpec{in0.spec, in1.spec},
		Outputs: outs,
		Body: func(c *core.TaskContext) {
			body((*Ctx[K])(c), input[I0](c, 0), input[I1](c, 1))
		},
	}))
	return TT{tt: tt}
}

// MakeTT3 registers a template task with three input terminals.
func MakeTT3[K comparable, I0, I1, I2 any](
	g *Graph, name string,
	in0 In[K, I0], in1 In[K, I1], in2 In[K, I2],
	outs []core.OutputSpec,
	body func(x *Ctx[K], a I0, b I1, c I2),
	opts ...Options[K],
) TT {
	tt := g.core.AddTT(firstOpt(opts).spec(core.TTSpec{
		Name:    name,
		Inputs:  []core.InputSpec{in0.spec, in1.spec, in2.spec},
		Outputs: outs,
		Body: func(c *core.TaskContext) {
			body((*Ctx[K])(c), input[I0](c, 0), input[I1](c, 1), input[I2](c, 2))
		},
	}))
	return TT{tt: tt}
}

// MakeTT4 registers a template task with four input terminals.
func MakeTT4[K comparable, I0, I1, I2, I3 any](
	g *Graph, name string,
	in0 In[K, I0], in1 In[K, I1], in2 In[K, I2], in3 In[K, I3],
	outs []core.OutputSpec,
	body func(x *Ctx[K], a I0, b I1, c I2, d I3),
	opts ...Options[K],
) TT {
	tt := g.core.AddTT(firstOpt(opts).spec(core.TTSpec{
		Name:    name,
		Inputs:  []core.InputSpec{in0.spec, in1.spec, in2.spec, in3.spec},
		Outputs: outs,
		Body: func(c *core.TaskContext) {
			body((*Ctx[K])(c), input[I0](c, 0), input[I1](c, 1), input[I2](c, 2), input[I3](c, 3))
		},
	}))
	return TT{tt: tt}
}

// Invoke1 creates one task of a unary template directly (the C++
// op->invoke analog); call it on the key's owner rank after
// MakeExecutable, typically to bootstrap initiator tasks. Unlike sends
// through typed edges, the argument types here are inferred from the call
// site, not checked against the template's declared terminals — pass
// exactly the terminal types (e.g. 1.0, not the untyped constant 1, for a
// float64 terminal) or the task body's type assertion will panic.
func Invoke1[K comparable, I0 any](t TT, key K, a I0) {
	t.tt.Invoke(core.Pack(key), a)
}

// Invoke2 creates one task of a binary template directly.
func Invoke2[K comparable, I0, I1 any](t TT, key K, a I0, b I1) {
	t.tt.Invoke(core.Pack(key), a, b)
}

// Invoke3 creates one task of a ternary template directly.
func Invoke3[K comparable, I0, I1, I2 any](t TT, key K, a I0, b I1, c I2) {
	t.tt.Invoke(core.Pack(key), a, b, c)
}

// Dot renders the template task graph in Graphviz DOT form (the C++
// ttg::dot analog); identical on every rank.
func (g *Graph) Dot() string { return g.core.Dot() }

// RegisterCodec installs a typed serialization codec; every value and
// task-ID type crossing rank boundaries needs one (common types are
// built in).
func RegisterCodec[T any](fc serde.FuncCodec[T]) { serde.Register(fc) }
