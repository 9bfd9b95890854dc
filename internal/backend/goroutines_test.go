package backend_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/netfab"
)

// settledGoroutines polls the goroutine count until it holds still, so
// goroutines already on their way out (an earlier test's, a bootstrap's)
// are not counted.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 500; i++ {
		time.Sleep(2 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// TestGoroutinesPerRank pins what a rank costs in goroutines: its W pool
// workers, plus over netfab one writer and one reader per peer. A packet
// is handled on the goroutine that lands it, so no rank has a receive
// thread of its own.
func TestGoroutinesPerRank(t *testing.T) {
	const workers = 2
	t.Run("simnet", func(t *testing.T) {
		const ranks = 2
		before := settledGoroutines()
		rt := backend.New(ranks, withWorkers(backend.PaRSEC(), workers))
		got := settledGoroutines() - before
		rt.Shutdown()
		if want := ranks * workers; got != want {
			t.Fatalf("%d ranks of %d workers started %d goroutines, want %d", ranks, workers, got, want)
		}
	})
	t.Run("netfab", func(t *testing.T) {
		const ranks = 3
		before := settledGoroutines()
		mesh, err := netfab.NewLocalMesh(ranks, netfab.Config{Transport: "tcp"})
		if err != nil {
			t.Fatal(err)
		}
		rts := make([]*backend.Runtime, ranks)
		for r, ep := range mesh {
			o := withWorkers(backend.PaRSEC(), workers)
			o.Fabric = ep
			rts[r] = backend.New(0, o)
		}
		got := settledGoroutines() - before
		var wg sync.WaitGroup
		for _, rt := range rts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rt.Shutdown()
			}()
		}
		wg.Wait()
		if want := ranks * (workers + 2*(ranks-1)); got != want {
			t.Fatalf("%d netfab ranks of %d workers started %d goroutines, want %d (%d per rank)",
				ranks, workers, got, want, workers+2*(ranks-1))
		}
	})
}
