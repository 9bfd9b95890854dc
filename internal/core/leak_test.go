package core_test

import (
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/obs/live"
	"repro/internal/serde"
)

// TestDoctorReportsLeakedHandle runs a Move fanning out to two read-only
// consumers on each of two in-process ranks, so each rank's data tracker
// makes and resolves a handle per send. Past the fence the doctor's
// zero-live check is quiet; a handle then leaked on rank 1 makes it fire,
// naming rank 1 alone, because each rank counts its own handles.
func TestDoctorReportsLeakedHandle(t *testing.T) {
	const ranks, keys = 2, 8
	opts := backend.PaRSEC()
	opts.WorkersPerRank = 2
	rt := backend.New(ranks, opts)
	graphs := make([]*core.Graph, ranks)
	rt.Run(func(p *backend.Proc) {
		g := p.NewGraph()
		e := core.NewEdge("e")
		for _, name := range []string{"a", "b"} {
			g.AddTT(core.TTSpec{
				Name:   name,
				Inputs: []core.InputSpec{{Edge: e, Access: core.ReadOnly}},
				Keymap: func(k any) int { return k.(serde.Int1)[0] % ranks },
				Body:   func(*core.TaskContext) {},
			})
		}
		g.Seal()
		p.Bind(g)
		for k := p.Rank(); k < keys; k += ranks {
			g.SeedMode(e, serde.Int1{k}, []float64{float64(k)}, core.SendMove)
		}
		g.Fence()
		graphs[p.Rank()] = g
	})
	doc := live.NewDoctor(live.Config{}, rt.LiveTargets()...)
	if rep := doc.Diagnose(); rep != nil {
		t.Fatalf("clean run diagnosed:\n%s", rep)
	}
	core.LeakTrackedHandle(graphs[1])
	rep := doc.Diagnose()
	if rep == nil {
		t.Fatal("a leaked handle went undiagnosed")
	}
	if rep.Tracked != 1 || len(rep.Ranks) != 1 || rep.Ranks[0].Rank != 1 || rep.Ranks[0].Tracked != 1 {
		t.Errorf("report counts %d tracked handles over ranks %+v, want 1 on rank 1 alone", rep.Tracked, rep.Ranks)
	}
	if s := rep.String(); !strings.Contains(s, "tracked=1") {
		t.Errorf("report does not name the rank's tracked handle:\n%s", s)
	}
	if n := graphs[0].LiveTrackedHandles(); n != 0 {
		t.Errorf("rank 0 counts %d live handles, want 0", n)
	}
}
