package backend_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/netfab"
	"repro/ttg"
)

// TestRandomGraphOverTCPFabric soaks the real-network transport: the
// randomized layered programs of random_graph_test.go run SPMD over a
// 4-rank local mesh of real TCP sockets — one single-rank runtime per
// goroutine — with a deliberately tiny in-flight bound so the writer's
// frame batching, vectored writes, and sender backpressure all cycle
// constantly. The per-sink sums must match the 1-rank in-process
// reference. Run under -race this covers the full socket path: writer
// batching, pooled receive landing, pull protocol, and graceful close.
func TestRandomGraphOverTCPFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("fabric soak skipped in -short")
	}
	const ranks = 4
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rp := newRandProgram(seed)
			ref := rp.run(t, ttg.PaRSEC, 1)
			for _, be := range []ttg.Backend{ttg.PaRSEC, ttg.MADNESS} {
				eps, err := netfab.NewLocalMesh(ranks, netfab.Config{
					Transport:   "tcp",
					MaxInflight: 4 << 10, // park senders constantly
				})
				if err != nil {
					t.Fatal(err)
				}
				closed := ledgerCloses(t)
				var mu sync.Mutex
				sums := map[int]float64{}
				main := rp.graphMain(t, &mu, sums)
				var wg sync.WaitGroup
				for r := 0; r < ranks; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						// Each rank is its own runtime over its endpoint;
						// Run closes the endpoint after the fence.
						ttg.Run(ttg.Config{
							Fabric:         eps[r],
							WorkersPerRank: 2,
							Backend:        be,
						}, main)
					}(r)
				}
				wg.Wait()
				closed(be.String())
				if len(sums) != len(ref) {
					t.Fatalf("%s: %d sink keys vs reference %d", be, len(sums), len(ref))
				}
				for k, v := range ref {
					if dv := sums[k] - v; dv > 1e-9 || dv < -1e-9 {
						t.Fatalf("%s: sink %d = %v, reference %v", be, k, sums[k], v)
					}
				}
			}
		})
	}
}
