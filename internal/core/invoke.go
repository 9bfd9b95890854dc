package core

import (
	"fmt"
	"sort"
	"strings"
)

// Invoke creates a task instance directly, bypassing the terminals — the
// analog of the C++ TTG's op->invoke(key, args...), used to bootstrap
// graphs whose initial tasks have no upstream producers. It must be called
// on the rank that owns the key (per the TT's key map), with one value per
// input terminal, after Seal.
func (tt *TT) Invoke(key Key, inputs ...any) {
	g := tt.g
	if !g.sealed {
		panic("core: Invoke before Seal")
	}
	if len(inputs) != len(tt.inputs) {
		panic(fmt.Sprintf("core: Invoke on %q with %d inputs, want %d", tt.name, len(inputs), len(tt.inputs)))
	}
	if owner := tt.keymap(key); owner != g.exec.Rank() {
		panic(fmt.Sprintf("core: Invoke on %q for key %v owned by rank %d, not %d", tt.name, key, owner, g.exec.Rank()))
	}
	key = g.canon(key)
	t := &Task{TT: tt, Key: key, Inputs: inputs, Priority: tt.Priority(key), Origin: -1}
	g.submitOne(t, -1)
}

// Dot renders the template task graph in Graphviz DOT form — nodes are
// template tasks, edges are the typed conduits between their terminals
// (the analog of the C++ ttg::dot). Call after the TTs are registered; the
// output is identical on every rank.
func (g *Graph) Dot() string {
	var b strings.Builder
	b.WriteString("digraph ttg {\n  rankdir=LR;\n  node [shape=box];\n")
	for _, tt := range g.tts {
		fmt.Fprintf(&b, "  tt%d [label=%q];\n", tt.id, tt.name)
	}
	// An edge object may be produced by several terminals and consumed by
	// several; emit producer→consumer arrows labeled by the edge name.
	type arrow struct {
		from, to int
		label    string
		term     int
	}
	var arrows []arrow
	for _, tt := range g.tts {
		for term, out := range tt.outputs {
			for _, cons := range out.Edge.consumers {
				arrows = append(arrows, arrow{from: tt.id, to: cons.tt.id, label: out.Edge.name, term: term})
			}
		}
	}
	sort.Slice(arrows, func(i, j int) bool {
		a, c := arrows[i], arrows[j]
		if a.from != c.from {
			return a.from < c.from
		}
		if a.to != c.to {
			return a.to < c.to
		}
		return a.label < c.label
	})
	for _, a := range arrows {
		fmt.Fprintf(&b, "  tt%d -> tt%d [label=%q];\n", a.from, a.to, a.label)
	}
	b.WriteString("}\n")
	return b.String()
}
