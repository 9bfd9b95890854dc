// The trace and stats subcommands: run one of the paper's four applications
// for real (actual kernels on a real backend, not the virtual-time model)
// with the unified observability layer enabled, then export a Chrome trace
// or print the offline analysis. With -http a net/http/pprof + OpenMetrics
// endpoint serves live metrics while the workload runs.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"

	"repro/internal/apps/bspmm"
	"repro/internal/apps/cholesky"
	"repro/internal/apps/fw"
	"repro/internal/apps/mra"
	"repro/internal/netcli"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/sparse"
	"repro/internal/tile"
	"repro/ttg"
)

// observeFlags are registered on the global flag set by main.
var (
	obsApp     = flag.String("app", "potrf", "trace/stats workload: potrf, fwapsp, bspmm, or mra")
	obsBackend = flag.String("backend", "parsec", "trace/stats backend: parsec or madness")
	obsRanks   = flag.Int("ranks", 4, "trace/stats virtual processes")
	obsWorkers = flag.Int("workers", 2, "trace/stats worker threads per rank")
	obsN       = flag.Int("n", 512, "trace/stats problem size (matrix order / atom count / Gaussian count)")
	obsOut     = flag.String("o", "trace.json", "trace: output path for the Chrome-trace JSON")
	obsHTTP    = flag.String("http", "", "serve net/http/pprof and OpenMetrics /metrics on this address (e.g. :6060) during the run")
	obsNet     = netcli.Register(nil)
)

// runObserved executes the trace or stats subcommand.
func runObserved(cmd string) {
	be, err := ttg.ParseBackend(*obsBackend)
	if err != nil {
		log.Fatal(err)
	}
	ep, err := obsNet.Launch(*obsRanks)
	if err != nil {
		log.Fatal(err)
	}
	session := obs.NewSession(obs.Config{})

	// The live endpoints come up inside the pre-run hook — after the
	// runtime exists (so /metrics has its per-rank collectors) and before
	// any rank main starts. /metrics reads only atomics and registries:
	// scraping mid-run cannot race the event buffers that the final
	// session.Report() scans at shutdown.
	hook := func(_ []live.Target, cs []live.Collector) {
		if *obsHTTP == "" {
			return
		}
		http.Handle("/metrics", &live.Exporter{Session: session, Collectors: cs})
		go func() {
			if err := http.ListenAndServe(*obsHTTP, nil); err != nil {
				fmt.Fprintf(os.Stderr, "http endpoint: %v\n", err)
			}
		}()
		fmt.Printf("serving pprof+/metrics on %s (during the run)\n", *obsHTTP)
	}

	cfg := ttg.Config{Ranks: *obsRanks, WorkersPerRank: *obsWorkers, Backend: be, Obs: session, Fabric: ep}
	switch *obsApp {
	case "potrf":
		grid := tile.Grid{N: *obsN, NB: 64}
		ttg.RunLive(cfg, hook, func(pc *ttg.Process) {
			g := pc.NewGraph()
			app := cholesky.Build(g, cholesky.Options{Grid: grid, Priorities: true})
			g.MakeExecutable()
			app.Seed()
			g.Fence()
		})
	case "fwapsp":
		grid := tile.Grid{N: *obsN, NB: 64}
		ttg.RunLive(cfg, hook, func(pc *ttg.Process) {
			g := pc.NewGraph()
			app := fw.Build(g, fw.Options{Grid: grid, Priorities: true})
			g.MakeExecutable()
			app.Seed()
			g.Fence()
		})
	case "bspmm":
		atoms := *obsN
		if atoms > 240 {
			atoms = 120 // -n defaults to a matrix order; clamp to a sane atom count
		}
		spec := sparse.DefaultSpec(atoms)
		spec.MaxTile = 64
		mat := sparse.Generate(spec)
		ttg.RunLive(cfg, hook, func(pc *ttg.Process) {
			g := pc.NewGraph()
			app := bspmm.Build(g, bspmm.Options{A: mat})
			g.MakeExecutable()
			app.Seed()
			g.Fence()
		})
	case "mra":
		funcs := 4
		ttg.RunLive(cfg, hook, func(pc *ttg.Process) {
			g := pc.NewGraph()
			app := mra.Build(g, mra.Options{K: 8, D: 3, NFuncs: funcs, Exponent: 600, Tol: 1e-7, Seed: 7})
			g.MakeExecutable()
			app.SeedProject()
			g.Fence()
		})
	default:
		log.Fatalf("unknown -app %q (want potrf, fwapsp, bspmm, or mra)", *obsApp)
	}

	switch cmd {
	case "trace":
		events := session.Events()
		if err := os.WriteFile(*obsOut, []byte(obs.ChromeJSONFromEvents(events)), 0o644); err != nil {
			log.Fatalf("writing trace: %v", err)
		}
		fmt.Printf("%s on %s, %d ranks x %d workers: %d events -> %s\n",
			*obsApp, be, *obsRanks, *obsWorkers, len(events), *obsOut)
		fmt.Println("open in chrome://tracing or https://ui.perfetto.dev")
	case "stats":
		fmt.Printf("%s on %s, %d ranks x %d workers\n\n", *obsApp, be, *obsRanks, *obsWorkers)
		fmt.Println(session.Report().String())
	}
}
