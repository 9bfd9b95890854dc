// Command bspmm runs the block-sparse matrix multiplication C = A·A for
// real on a process-local virtual cluster over a synthetic Yukawa-operator
// matrix, and reports the sparsity profile, throughput, and communication
// statistics.
//
// Usage: bspmm [-atoms 120] [-ranks 4] [-workers 2] [-backend parsec|madness] [-variant ttg|dbcsr] [-layers N] [-flat-reduce] [-trace out.json] [-stats]
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/apps/bspmm"
	"repro/internal/lapack"
	"repro/internal/netcli"
	"repro/internal/obscli"
	"repro/internal/sparse"
	"repro/internal/tile"
	"repro/internal/trace"
	"repro/ttg"
)

func main() {
	atoms := flag.Int("atoms", 120, "atom count of the synthetic operator matrix")
	ranks := flag.Int("ranks", 4, "virtual processes")
	workers := flag.Int("workers", 2, "worker threads per rank")
	backendName := flag.String("backend", "parsec", "runtime backend: parsec or madness")
	variantName := flag.String("variant", "ttg", "algorithm: ttg (2D SUMMA) or dbcsr (2.5D model)")
	layers := flag.Int("layers", 0, "2.5D replica layers (dbcsr model; 0 = auto)")
	flatReduce := flag.Bool("flat-reduce", false, "disable hierarchical reduction of inter-layer C partials (ablation)")
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

	variant := bspmm.TTGVariant
	if *variantName == "dbcsr" {
		variant = bspmm.DBCSRModel
	}

	spec := sparse.DefaultSpec(*atoms)
	spec.MaxTile = 64
	spec.FuncsMin, spec.FuncsMax = 10, 30
	mat := sparse.Generate(spec)

	var mu sync.Mutex
	var produced int
	var checksum float64
	var stats trace.Snapshot
	start := time.Now()
	var appStats string
	session := obsFlags.Session()
	ttg.RunLive(ttg.Config{Ranks: *ranks, WorkersPerRank: *workers, Backend: be, Obs: session, Fabric: ep}, obsFlags.Hook(), func(pc *ttg.Process) {
		g := pc.NewGraph()
		app := bspmm.Build(g, bspmm.Options{
			A: mat, Variant: variant, Layers: *layers, FlatReduce: *flatReduce,
			OnResult: func(i, j int, t *tile.Tile) {
				mu.Lock()
				produced++
				checksum += t.FrobeniusNorm()
				mu.Unlock()
			},
		})
		g.MakeExecutable()
		app.Seed()
		g.Fence()
		mu.Lock()
		stats = stats.Add(pc.Stats())
		appStats = app.Stats()
		mu.Unlock()
	})
	elapsed := time.Since(start)

	fmt.Printf("BSPMM C=A·A, %s\n", appStats)
	if ep != nil {
		fmt.Printf("rank %d/%d over %s, backend=%s, variant=%s\n", ep.Rank(), ep.Size(), netFlags.Transport(), be, variant)
		fmt.Printf("local product tiles: %d, local Σ‖C tile‖_F = %.6g\n", produced, checksum)
	} else {
		fmt.Printf("on %d ranks x %d workers, backend=%s, variant=%s\n", *ranks, *workers, be, variant)
		fmt.Printf("product tiles: %d, Σ‖C tile‖_F = %.6g\n", produced, checksum)
	}
	fmt.Printf("time %.3fs (%.2f GF/s aggregate)\n", elapsed.Seconds(), mat.MulFlops()/elapsed.Seconds()/1e9)
	fmt.Printf("stats: kernels=%s %s\n", lapack.Impl(), stats)
	if err := obsFlags.FinishDoctor(); err != nil {
		log.Fatal(err)
	}
	if err := obsFlags.Finish(session); err != nil {
		log.Fatal(err)
	}
}
