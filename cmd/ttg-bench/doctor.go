// The doctor subcommand: run potrf or fwapsp on a real backend with the
// live graph doctor attached. A healthy run completes and exits 0; a
// wedged graph (e.g. the -broken miswired fixture) trips the doctor,
// which prints a structured stall report with blame edges and exits 1 —
// the fence never returns on a real backend once the graph is stalled,
// so the watchdog is the only way out.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/apps/cholesky"
	"repro/internal/apps/fw"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/tile"
	"repro/ttg"
)

var (
	docBroken = flag.Bool("broken", false, "doctor: run the deliberately miswired cholesky fixture (TRSM never feeds trsm_syrk)")
	docQuiet  = flag.Duration("doctor-quiet", 2*time.Second, "doctor: quiet period before a stall is reported")
	docWait   = flag.Duration("doctor-timeout", 60*time.Second, "doctor: give up if neither completion nor a stall report arrives in this long")
)

// runDoctor executes the doctor subcommand.
func runDoctor() {
	be, err := ttg.ParseBackend(*obsBackend)
	if err != nil {
		log.Fatal(err)
	}
	if *obsApp != "potrf" && *obsApp != "fwapsp" {
		log.Fatalf("doctor: unknown -app %q (want potrf or fwapsp)", *obsApp)
	}
	if *docBroken && *obsApp != "potrf" {
		log.Fatalf("doctor: -broken requires -app potrf (the miswired fixture is the cholesky graph)")
	}
	session := obs.NewSession(obs.Config{})
	cfg := ttg.Config{Ranks: *obsRanks, WorkersPerRank: *obsWorkers, Backend: be, Obs: session}
	grid := tile.Grid{N: *obsN, NB: 64}

	stalled := make(chan *live.StallReport, 1)
	var doc *live.Doctor
	var uninstall func()
	hook := func(targets []live.Target, _ []live.Collector) {
		doc = live.NewDoctor(live.Config{
			Quiet: *docQuiet,
			OnStall: func(rep *live.StallReport) {
				select {
				case stalled <- rep:
				default:
				}
			},
		}, targets...)
		doc.Start()
		uninstall = live.InstallSignalDump(session, doc)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		ttg.RunLive(cfg, hook, func(pc *ttg.Process) {
			g := pc.NewGraph()
			switch *obsApp {
			case "potrf":
				app := cholesky.Build(g, cholesky.Options{Grid: grid, Priorities: true, Miswire: *docBroken})
				g.MakeExecutable()
				app.Seed()
			case "fwapsp":
				app := fw.Build(g, fw.Options{Grid: grid, Priorities: true})
				g.MakeExecutable()
				app.Seed()
			}
			g.Fence()
		})
	}()

	select {
	case rep := <-stalled:
		fmt.Print(rep.String())
		fmt.Fprintln(os.Stderr, "doctor: graph is stalled; exiting")
		os.Exit(1)
	case <-done:
		doc.Stop()
		uninstall()
		// A wedged graph still quiesces — partially filled shells hold no
		// activation, so the fence returns as if the run were done. The
		// post-run diagnosis is what catches it.
		if rep := doc.Diagnose(); rep != nil {
			fmt.Print(rep.String())
			fmt.Fprintln(os.Stderr, "doctor: graph quiesced with pending task shells; exiting")
			os.Exit(1)
		}
		if n := doc.Reports(); n != 0 {
			fmt.Printf("doctor: run completed but %d stall report(s) fired:\n%s", n, doc.LastReport().String())
			os.Exit(1)
		}
		fmt.Printf("doctor: %s on %s, %d ranks x %d workers: graph completed cleanly, no stalls detected\n",
			*obsApp, be, *obsRanks, *obsWorkers)
	case <-time.After(*docWait):
		fmt.Fprintln(os.Stderr, "doctor: timeout waiting for completion or a stall report")
		os.Exit(2)
	}
}
