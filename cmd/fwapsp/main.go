// Command fwapsp runs the distributed tiled Floyd-Warshall all-pairs-
// shortest-path solver for real on a process-local virtual cluster,
// verifies against the scalar algorithm, and reports throughput.
//
// Usage: fwapsp [-n 256] [-nb 32] [-ranks 4] [-workers 2] [-backend parsec|madness] [-variant ttg|forkjoin] [-noverify] [-trace out.json] [-stats]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"sync"
	"time"

	"repro/internal/apps/fw"
	"repro/internal/lapack"
	"repro/internal/netcli"
	"repro/internal/obscli"
	"repro/internal/tile"
	"repro/internal/trace"
	"repro/ttg"
)

func main() {
	n := flag.Int("n", 256, "matrix order")
	nb := flag.Int("nb", 32, "block size")
	ranks := flag.Int("ranks", 4, "virtual processes")
	workers := flag.Int("workers", 2, "worker threads per rank")
	backendName := flag.String("backend", "parsec", "runtime backend: parsec or madness")
	variantName := flag.String("variant", "ttg", "sync structure: ttg or forkjoin")
	noverify := flag.Bool("noverify", false, "skip the O(n³) scalar verification")
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

	variant := fw.TTGVariant
	if *variantName == "forkjoin" {
		variant = fw.ForkJoinModel
	}

	grid := tile.Grid{N: *n, NB: *nb}
	var mu sync.Mutex
	results := map[ttg.Int2]*tile.Tile{}
	var stats trace.Snapshot
	start := time.Now()
	session := obsFlags.Session()
	ttg.RunLive(ttg.Config{Ranks: *ranks, WorkersPerRank: *workers, Backend: be, Obs: session, Fabric: ep}, obsFlags.Hook(), func(pc *ttg.Process) {
		g := pc.NewGraph()
		app := fw.Build(g, fw.Options{
			Grid: grid, Variant: variant, Priorities: variant == fw.TTGVariant,
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
		// Multi-process run: only this rank's tiles are local, so the
		// global scalar verification cannot run here.
		fmt.Printf("FW-APSP %dx%d (nb=%d) rank %d/%d over %s: %d local tiles\n",
			*n, *n, *nb, ep.Rank(), ep.Size(), netFlags.Transport(), len(results))
	} else {
		fmt.Printf("FW-APSP %dx%d (nb=%d) on %d ranks x %d workers, backend=%s, variant=%s\n",
			*n, *n, *nb, *ranks, *workers, be, variant)
		if !*noverify {
			verify(*n, grid, results)
			fmt.Println("verified against the scalar Floyd-Warshall")
		}
	}
	fmt.Printf("time %.3fs (%.2f Gop/s aggregate)\n",
		elapsed.Seconds(), fw.Flops(*n)/elapsed.Seconds()/1e9)
	fmt.Printf("stats: kernels=%s %s\n", lapack.Impl(), stats)
	if err := obsFlags.FinishDoctor(); err != nil {
		log.Fatal(err)
	}
	if err := obsFlags.Finish(session); err != nil {
		log.Fatal(err)
	}
}

func verify(n int, grid tile.Grid, results map[ttg.Int2]*tile.Tile) {
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			d[i][j] = fw.EdgeWeight(i, j)
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := d[i][k]
			if dik >= lapack.Inf {
				continue
			}
			for j := 0; j < n; j++ {
				if v := dik + d[k][j]; v < d[i][j] {
					d[i][j] = v
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			t := results[ttg.Int2{i / grid.NB, j / grid.NB}]
			if t == nil {
				log.Fatalf("FAILED: missing tile (%d,%d)", i/grid.NB, j/grid.NB)
			}
			if math.Abs(t.At(i%grid.NB, j%grid.NB)-d[i][j]) > 1e-9 {
				log.Fatalf("FAILED: dist(%d,%d) = %v, want %v", i, j, t.At(i%grid.NB, j%grid.NB), d[i][j])
			}
		}
	}
}
