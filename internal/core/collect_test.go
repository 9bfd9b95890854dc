// External test package: the wedged graph is the Cholesky application's
// miswired fixture, built through the public ttg API, which imports core.
package core_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/apps/cholesky"
	"repro/internal/tile"
	"repro/ttg"
)

// TestCollectWedgedCholesky runs the miswired Cholesky (TRSM never feeds
// SYRK's panel input) on 2 ranks and checks that, past the fence, each
// rank's PendingTasks — the match tables' slot walk — returns exactly the
// live shells: as many as the tables count, and the very task instances
// the wedge strands. Iteration 0 runs except its SYRKs; what waits is
//   - SYRK(m, 0) for m ≥ 1, holding its seeded carry tile;
//   - TRSM(i, 1) for i ≥ 2, fed by GEMM(i, 1, 0);
//   - GEMM(i, j, 1) for i > j ≥ 2, fed by GEMM(i, j, 0).
func TestCollectWedgedCholesky(t *testing.T) {
	const nt = 6
	var want []string
	for m := 1; m < nt; m++ {
		want = append(want, fmt.Sprintf("SYRK %v", ttg.Int2{m, 0}))
	}
	for i := 2; i < nt; i++ {
		want = append(want, fmt.Sprintf("TRSM %v", ttg.Int2{i, 1}))
		for j := 2; j < i; j++ {
			want = append(want, fmt.Sprintf("GEMM %v", ttg.Int3{i, j, 1}))
		}
	}
	sort.Strings(want)

	var mu sync.Mutex
	var got []string
	ttg.Run(ttg.Config{Ranks: 2, WorkersPerRank: 2, Backend: ttg.PaRSEC}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		app := cholesky.Build(g, cholesky.Options{Grid: tile.Grid{N: nt * 8, NB: 8}, Miswire: true})
		g.MakeExecutable()
		app.Seed()
		g.Fence()
		tasks, total := g.Core().PendingTasks(0)
		mu.Lock()
		defer mu.Unlock()
		if int64(len(tasks)) != total {
			t.Errorf("rank %d: %d shells in the table slots, %d counted live", pc.Rank(), len(tasks), total)
		}
		for _, pt := range tasks {
			if len(pt.Missing) == 0 {
				t.Errorf("rank %d: %s %s reported pending with every input", pc.Rank(), pt.TT, pt.Key)
			}
			got = append(got, pt.TT+" "+pt.Key)
		}
	})
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("pending shells\n got %v\nwant %v", got, want)
	}
}
