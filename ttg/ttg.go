// Package ttg is the public, strongly typed Template Task Graph API: a Go
// reproduction of the C++ TTG programming model of Schuchart et al.
// (IPDPS 2022). An algorithm is expressed as a graph of template tasks
// whose typed input and output terminals are connected by typed edges;
// messages carry a task ID and a data value, and a task instance is created
// once every input terminal has received a message with the same ID. Go
// generics take the place of C++ templates: edges, terminals, reducers, and
// task bodies are all checked at compile time.
//
// Programs run over one of two runtime backends modeled on the paper's
// PaRSEC and MADNESS backends, with every rank in this process (their
// messages cross the in-process fabric as bytes, at no modelled cost) or
// one rank per OS process over real sockets. The same application code
// runs on either backend and either transport — selecting one is a
// configuration value rather than the C++ implementation's preprocessor
// macro.
//
//	ttg.Run(ttg.Config{Ranks: 4, Backend: ttg.PaRSEC}, func(pc *ttg.Process) {
//		g := pc.NewGraph()
//		in := ttg.NewEdge[ttg.Int1, float64]("in")
//		... build template tasks ...
//		g.MakeExecutable()
//		if pc.Rank() == 0 {
//			ttg.Seed(g, in, ttg.Int1{0}, 1.0)
//		}
//		g.Fence()
//	})
package ttg

import (
	"fmt"
	"strings"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/serde"
	"repro/internal/trace"
)

// Mode selects data-passing semantics for sends (Listing 2 of the paper).
type Mode = core.SendMode

// Send modes: Copy is the safe default; Borrow is the const-ref
// convention (no copy under runtimes that track data lifetimes); Move
// transfers ownership (the std::move convention).
const (
	Copy   = core.SendCopy
	Borrow = core.SendBorrow
	Move   = core.SendMove
)

// Common task-ID tuple types and the null (void) type, re-exported from the
// serialization layer.
type (
	// Void is the null type for pure control flow (void data) or pure
	// dataflow (void task IDs).
	Void = serde.Void
	// Int1 is a 1-tuple task ID.
	Int1 = serde.Int1
	// Int2 is a 2-tuple task ID.
	Int2 = serde.Int2
	// Int3 is a 3-tuple task ID.
	Int3 = serde.Int3
	// Int4 is a 4-tuple task ID.
	Int4 = serde.Int4
	// Int5 is a 5-tuple task ID.
	Int5 = serde.Int5
)

// Backend selects the runtime model executing the graph. Each constant
// names one engine preset of the paper's §II-D property list; what a
// backend is lives in backend.PaRSEC and backend.MADNESS.
type Backend int

const (
	// PaRSEC: banded priority work stealing, runtime-owned data (const-ref
	// sends avoid copies), large payloads by reference, one push per
	// destination rank.
	PaRSEC Backend = iota
	// MADNESS: FIFO thread pool, active messages handled where they land,
	// whole-object pushes, a copy for every consumer.
	MADNESS
)

var presets = [...]backend.Options{PaRSEC: backend.PaRSEC(), MADNESS: backend.MADNESS()}

// preset returns b's engine preset; ok is false for a value that names none.
func (b Backend) preset() (o backend.Options, ok bool) {
	if b < 0 || int(b) >= len(presets) {
		return o, false
	}
	return presets[b], true
}

func (b Backend) String() string {
	if o, ok := b.preset(); ok {
		return o.Name
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// ParseBackend is the inverse of Backend.String; the error for an unknown
// name lists the valid ones.
func ParseBackend(name string) (Backend, error) {
	var names []string
	for b, o := range presets {
		if o.Name == name {
			return Backend(b), nil
		}
		names = append(names, o.Name)
	}
	return 0, fmt.Errorf("unknown backend %q (valid: %s)", name, strings.Join(names, ", "))
}

// Config describes the cluster and backend for a run. It has no network
// settings: in-process ranks exchange messages immediately and in order
// (internal/simnet carries bytes and models no latency or bandwidth), and
// a Fabric run pays whatever its real network costs. Latency and
// bandwidth are modelled only in virtual time, by internal/backend/sim.
type Config struct {
	// Ranks is the number of in-process ranks (default 1).
	Ranks int
	// WorkersPerRank is each rank's worker-thread count (default
	// NumCPU/Ranks, minimum 1).
	WorkersPerRank int
	// Backend picks the runtime model.
	Backend Backend
	// Fabric, when non-nil, runs this process as ONE rank of a real
	// multi-process cluster over the given transport endpoint (e.g. a
	// netfab TCP/Unix-socket fabric) instead of the in-process simnet
	// cluster. Ranks is ignored in favor of Fabric.Size(), and main runs
	// exactly once — for rank Fabric.Rank(). Run closes the endpoint on
	// shutdown.
	Fabric fabric.Endpoint
	// Obs, when non-nil, enables the unified observability layer: each
	// rank records task-lifecycle events and metrics into the session,
	// readable after Run via Session.Report, Session.ChromeJSON, and
	// Session.Events. Nil (the default) costs one branch per
	// instrumentation point.
	Obs *obs.Session
}

// Process is one rank's execution context inside Run.
type Process struct {
	p *backend.Proc
}

// Rank returns this process's rank.
func (pc *Process) Rank() int { return pc.p.Rank() }

// Size returns the number of ranks.
func (pc *Process) Size() int { return pc.p.Size() }

// Workers returns the rank's worker-thread count.
func (pc *Process) Workers() int { return pc.p.Workers() }

// Stats returns this rank's execution counters.
func (pc *Process) Stats() trace.Snapshot { return pc.p.Stats() }

// CollectLive implements live.Collector, emitting this rank's
// instantaneous progress gauges for the OpenMetrics endpoint.
func (pc *Process) CollectLive(emit func(live.Sample)) { pc.p.CollectLive(emit) }

// NewGraph creates an empty graph bound to this process.
func (pc *Process) NewGraph() *Graph {
	return NewGraphOn(pc.p)
}

// Executor is the contract a runtime rank offers the typed API: the core
// executor operations plus graph binding. Both the real backends
// (backend.Proc) and the virtual-time backend (sim.Proc) satisfy it.
type Executor interface {
	core.Executor
	Bind(*core.Graph)
}

// NewGraphOn builds a typed graph over any executor — used by the
// benchmark harness to run the same application code on the virtual-time
// backend.
func NewGraphOn(exec Executor) *Graph {
	return &Graph{core: core.NewGraph(exec), binder: exec}
}

// Graph is a typed template task graph under construction or execution.
type Graph struct {
	core   *core.Graph
	binder Executor
}

// Core exposes the underlying untyped graph (advanced use, tests).
func (g *Graph) Core() *core.Graph { return g.core }

// Rank returns the local rank.
func (g *Graph) Rank() int { return g.core.Rank() }

// Size returns the number of ranks.
func (g *Graph) Size() int { return g.core.Size() }

// MakeExecutable seals the graph and attaches it to the runtime; after
// this, seeds may be injected and tasks will run. The analog of
// make_graph_executable in the C++ TTG.
func (g *Graph) MakeExecutable() {
	g.core.Seal()
	g.binder.Bind(g.core)
}

// Fence blocks until the distributed computation quiesces (collective).
func (g *Graph) Fence() { g.core.Fence() }

// Run executes main once per rank over a fresh cluster, then shuts
// the cluster down. Each main must build identical graphs (the SPMD
// convention), call MakeExecutable, inject any seeds, and Fence.
func Run(cfg Config, main func(pc *Process)) {
	RunLive(cfg, nil, main)
}

// RunLive is Run with a live-introspection hook: before any rank main
// starts, hook receives one graph-doctor target and one metrics collector
// per rank, so callers can attach a live.Doctor or serve a live.Exporter
// while the run is in flight. The run begins when hook returns.
func RunLive(cfg Config, hook func(targets []live.Target, collectors []live.Collector), main func(pc *Process)) {
	if cfg.Ranks <= 0 {
		cfg.Ranks = 1
	}
	opts, ok := cfg.Backend.preset()
	if !ok {
		panic(fmt.Sprintf("ttg: unknown backend %v", cfg.Backend))
	}
	opts.WorkersPerRank = cfg.WorkersPerRank
	opts.Fabric = cfg.Fabric
	opts.Obs = cfg.Obs
	rt := backend.New(cfg.Ranks, opts)
	if hook != nil {
		hook(rt.LiveTargets(), rt.LiveCollectors())
	}
	rt.Run(func(p *backend.Proc) { main(&Process{p: p}) })
}
