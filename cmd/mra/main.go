// Command mra runs the multiresolution-analysis pipeline for real on a
// process-local virtual cluster: adaptive multiwavelet projection of
// random Gaussians, compression, reconstruction, and norm verification
// against the analytic value.
//
// Usage: mra [-k 8] [-d 3] [-funcs 4] [-exponent 600] [-ranks 4] [-workers 2] [-backend parsec|madness] [-variant ttg|native] [-trace out.json] [-stats]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"sync"
	"time"

	"repro/internal/apps/mra"
	"repro/internal/netcli"
	"repro/internal/obscli"
	"repro/internal/trace"
	"repro/ttg"
)

func main() {
	k := flag.Int("k", 8, "multiwavelet order")
	d := flag.Int("d", 3, "dimension (1-3)")
	funcs := flag.Int("funcs", 4, "number of Gaussians")
	exponent := flag.Float64("exponent", 600, "Gaussian exponent (unit-cube coords)")
	tol := flag.Float64("tol", 1e-7, "truncation threshold")
	ranks := flag.Int("ranks", 4, "virtual processes")
	workers := flag.Int("workers", 2, "worker threads per rank")
	backendName := flag.String("backend", "parsec", "runtime backend: parsec or madness")
	variantName := flag.String("variant", "ttg", "sync structure: ttg (streamed) or native (fenced)")
	obsFlags := obscli.Register(nil)
	netFlags := netcli.Register(nil)
	flag.Parse()

	be, err := ttg.ParseBackend(*backendName)
	if err != nil {
		log.Fatal(err)
	}
	ep, err := netFlags.Launch(*ranks)
	if err != nil {
		log.Fatal(err)
	}

	phased := *variantName == "native"

	var mu sync.Mutex
	norms := map[int]float64{}
	var stats trace.Snapshot
	opts := mra.Options{
		K: *k, D: *d, NFuncs: *funcs, Exponent: *exponent, Tol: *tol, Seed: 7,
		OnNorm: func(f int, n float64) {
			mu.Lock()
			norms[f] = n
			mu.Unlock()
		},
	}
	if phased {
		opts.Variant = mra.NativeMADNESSModel
	}
	start := time.Now()
	session := obsFlags.Session()
	ttg.RunLive(ttg.Config{Ranks: *ranks, WorkersPerRank: *workers, Backend: be, Obs: session, Fabric: ep}, obsFlags.Hook(), func(pc *ttg.Process) {
		g := pc.NewGraph()
		app := mra.Build(g, opts)
		g.MakeExecutable()
		app.SeedProject()
		g.Fence()
		if phased {
			app.SeedCompressPhase()
			g.Fence()
			app.SeedReconstructPhase()
			g.Fence()
			app.SeedNormPhase()
			g.Fence()
		}
		mu.Lock()
		stats = stats.Add(pc.Stats())
		mu.Unlock()
	})
	elapsed := time.Since(start)

	want := math.Sqrt(mra.GaussianNorm2(*exponent, *d))
	worst := 0.0
	for f := 0; f < *funcs; f++ {
		n, ok := norms[f]
		if !ok {
			// Multi-process run: each function's norm lands on one rank
			// only; a missing norm elsewhere is expected.
			if ep != nil {
				continue
			}
			log.Fatalf("FAILED: no norm for function %d", f)
		}
		if rel := math.Abs(n-want) / want; rel > worst {
			worst = rel
		}
	}
	fmt.Printf("MRA %d-D order-%d, %d Gaussians (exponent %g, tol %g)\n", *d, *k, *funcs, *exponent, *tol)
	if ep != nil {
		fmt.Printf("rank %d/%d over %s, backend=%s, variant=%s\n", ep.Rank(), ep.Size(), netFlags.Transport(), be, *variantName)
		fmt.Printf("verified %d local norms: worst relative error %.3g (analytic %.8g)\n", len(norms), worst, want)
	} else {
		fmt.Printf("on %d ranks x %d workers, backend=%s, variant=%s\n", *ranks, *workers, be, *variantName)
		fmt.Printf("verified: worst relative norm error %.3g (analytic %.8g)\n", worst, want)
	}
	fmt.Printf("time %.3fs\n", elapsed.Seconds())
	fmt.Printf("stats: %s\n", stats)
	if err := obsFlags.FinishDoctor(); err != nil {
		log.Fatal(err)
	}
	if err := obsFlags.Finish(session); err != nil {
		log.Fatal(err)
	}
}
