// Command ttg-bench regenerates the paper's evaluation: every figure of
// §III as a text table (or CSV), produced by running the real template
// task graphs on the virtual-time backend over the Hawk/Seawulf machine
// models.
//
// Usage:
//
//	ttg-bench [-quick] [-csv] fig5|fig6|fig8|fig9|fig11|fig12|fig13a|fig13b|all|env
//	ttg-bench [-quick] [-timeline t.json] profile
//	ttg-bench [-app potrf|fwapsp|bspmm|mra] [-backend parsec|madness] [-http :6060] trace|stats
//	ttg-bench [-app potrf|fwapsp] [-backend parsec|madness] [-broken] [-doctor-quiet 2s] doctor
//
// -quick runs the scaled-down sweeps (seconds instead of minutes). The
// trace and stats subcommands run one application for real with the
// observability layer on, writing a Chrome-trace JSON (trace) or printing
// per-template profiles, histograms, and the observed critical path
// (stats); -http serves net/http/pprof and an OpenMetrics /metrics
// endpoint live during the run. The doctor subcommand attaches
// the live stall watchdog: a wedged graph (try -broken) is diagnosed with
// a blame-edge report and exit status 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run the scaled-down sweeps")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	timeline := flag.String("timeline", "", "with profile: write a Chrome trace JSON to this path")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ttg-bench [-quick] [-csv] fig5|fig6|fig8|fig9|fig11|fig12|fig13a|fig13b|all|env|profile|trace|stats|doctor\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}
	figs := map[string]func(experiments.Scale) experiments.Figure{
		"fig5":   experiments.Fig5,
		"fig6":   experiments.Fig6,
		"fig8":   experiments.Fig8,
		"fig9":   experiments.Fig9,
		"fig12":  experiments.Fig12,
		"fig13a": experiments.Fig13a,
		"fig13b": experiments.Fig13b,
	}
	emit := func(f experiments.Figure, wall time.Duration) {
		if *csv {
			fmt.Print(f.CSV())
		} else {
			fmt.Println(f.Render())
			fmt.Printf("(regenerated in %.1fs)\n\n", wall.Seconds())
		}
	}
	switch cmd := flag.Arg(0); cmd {
	case "trace", "stats":
		runObserved(cmd)
	case "doctor":
		runDoctor()
	case "fig11":
		fmt.Print(experiments.Fig11(scale))
	case "profile":
		report, chrome := experiments.ProfileWithTimeline(scale, *timeline != "")
		fmt.Print(report)
		if *timeline != "" {
			if err := os.WriteFile(*timeline, []byte(chrome), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "writing timeline: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("timeline written to %s\n", *timeline)
		}
	case "env":
		fmt.Printf("Go %s on %s/%s, GOMAXPROCS=%d\n\n", runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0))
		fmt.Print(experiments.TableI())
	case "all":
		fmt.Println(experiments.Fig11(scale))
		for _, name := range []string{"fig5", "fig6", "fig8", "fig9", "fig12", "fig13a", "fig13b"} {
			start := time.Now()
			emit(figs[name](scale), time.Since(start))
		}
	default:
		fn, ok := figs[cmd]
		if !ok {
			flag.Usage()
			os.Exit(2)
		}
		start := time.Now()
		emit(fn(scale), time.Since(start))
	}
}
