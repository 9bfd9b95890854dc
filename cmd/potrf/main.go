// Command potrf runs the distributed tiled Cholesky factorization for
// real (actual kernels, actual messages) on a process-local virtual
// cluster, verifies ‖L·Lᵀ − A‖, and reports throughput and communication
// statistics.
//
// Usage: potrf [-n 512] [-nb 64] [-ranks 4] [-workers 2] [-backend parsec|madness] [-variant ttg|scalapack|slate] [-transport tcp|unix] [-trace out.json] [-stats]
//
// With -transport tcp|unix the ranks run as separate OS processes over
// the real-network fabric (self-spawning, or manual with -rank/-peers);
// each process then verifies and reports its local tiles only.
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/apps/cholesky"
	"repro/internal/lapack"
	"repro/internal/netcli"
	"repro/internal/obscli"
	"repro/internal/tile"
	"repro/internal/trace"
	"repro/ttg"
)

func main() {
	n := flag.Int("n", 512, "matrix order")
	nb := flag.Int("nb", 64, "tile size")
	ranks := flag.Int("ranks", 4, "virtual processes")
	workers := flag.Int("workers", 2, "worker threads per rank")
	backendName := flag.String("backend", "parsec", "runtime backend: parsec or madness")
	variantName := flag.String("variant", "ttg", "sync structure: ttg, scalapack, or slate")
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

	variant := cholesky.TTGVariant
	switch *variantName {
	case "scalapack":
		variant = cholesky.ScaLAPACKModel
	case "slate":
		variant = cholesky.SLATEModel
	}

	grid := tile.Grid{N: *n, NB: *nb}
	var mu sync.Mutex
	results := map[ttg.Int2]*tile.Tile{}
	var stats trace.Snapshot
	start := time.Now()
	session := obsFlags.Session()
	ttg.RunLive(ttg.Config{Ranks: *ranks, WorkersPerRank: *workers, Backend: be, Obs: session, Fabric: ep}, obsFlags.Hook(), func(pc *ttg.Process) {
		g := pc.NewGraph()
		app := cholesky.Build(g, cholesky.Options{
			Grid: grid, Variant: variant, Priorities: variant == cholesky.TTGVariant,
			OnResult: func(i, j int, t *tile.Tile) {
				mu.Lock()
				results[ttg.Int2{i, j}] = t
				mu.Unlock()
			},
		})
		g.MakeExecutable()
		app.Seed()
		g.Fence()
		mu.Lock()
		stats = stats.Add(pc.Stats())
		mu.Unlock()
	})
	elapsed := time.Since(start)

	if ep != nil {
		// Multi-process run: this process holds only its rank's result
		// tiles, so the global ‖L·Lᵀ − A‖ check cannot run here. Report
		// the local partition instead (the e2e tests merge and verify).
		var norm float64
		for _, t := range results {
			norm += t.FrobeniusNorm()
		}
		fmt.Printf("POTRF %dx%d (nb=%d) rank %d/%d over %s: %d local tiles, Σ‖L tile‖_F = %.6g\n",
			*n, *n, *nb, ep.Rank(), ep.Size(), netFlags.Transport(), len(results), norm)
		fmt.Printf("time %.3fs\n", elapsed.Seconds())
		fmt.Printf("stats: kernels=%s %s\n", lapack.Impl(), stats)
		if err := obsFlags.FinishDoctor(); err != nil {
			log.Fatal(err)
		}
		if err := obsFlags.Finish(session); err != nil {
			log.Fatal(err)
		}
		return
	}

	maxErr, ok := cholesky.Verify(grid, results)
	if !ok {
		log.Fatalf("FAILED: max error %g", maxErr)
	}
	gflops := cholesky.Flops(*n) / elapsed.Seconds() / 1e9
	fmt.Printf("POTRF %dx%d (nb=%d) on %d ranks x %d workers, backend=%s, variant=%s\n",
		*n, *n, *nb, *ranks, *workers, be, variant)
	fmt.Printf("verified: max |L·Lᵀ − A| = %.3g\n", maxErr)
	fmt.Printf("time %.3fs (%.2f GF/s aggregate)\n", elapsed.Seconds(), gflops)
	fmt.Printf("stats: kernels=%s %s\n", lapack.Impl(), stats)
	if err := obsFlags.FinishDoctor(); err != nil {
		log.Fatal(err)
	}
	if err := obsFlags.Finish(session); err != nil {
		log.Fatal(err)
	}
}
