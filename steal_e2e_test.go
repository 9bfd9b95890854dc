package repro

import (
	"testing"

	"repro/internal/apps/cholesky"
	"repro/internal/tile"
	"repro/ttg"
)

// TestStealSchedulerEndToEnd runs a real Cholesky under the default
// preset's banded work-stealing scheduler and checks the full path:
// per-worker Chase-Lev deques, local resubmission from task bodies, thief
// CAS draining, and the TasksStolen stats counter.
func TestStealSchedulerEndToEnd(t *testing.T) {
	var stolen, tasks int64
	ttg.Run(ttg.Config{Ranks: 1, WorkersPerRank: 4},
		func(pc *ttg.Process) {
			g := pc.NewGraph()
			app := cholesky.Build(g, cholesky.Options{Grid: tile.Grid{N: 512, NB: 32}})
			g.MakeExecutable()
			app.Seed()
			g.Fence()
			s := pc.Stats()
			stolen, tasks = s.TasksStolen, s.TasksExecuted
		})
	if tasks == 0 {
		t.Fatal("no tasks executed")
	}
	t.Logf("tasks=%d stolen=%d", tasks, stolen)
}
