package experiments

import (
	"fmt"
	"strings"

	"repro/internal/apps/cholesky"
	"repro/internal/backend/sim"
	"repro/internal/cluster"
	"repro/internal/sparse"
	"repro/internal/tile"
	"repro/ttg"
)

// Fig11 renders the occupancy pattern of the synthetic Yukawa operator
// matrix — the analog of the paper's Fig. 11 plot of the SARS-CoV-2
// protease matrix — as an ASCII density map, with summary statistics.
func Fig11(scale Scale) string {
	atoms := 2500
	if scale == Quick {
		atoms = 400
	}
	m := sparse.Generate(sparse.DefaultSpec(atoms))
	const cells = 56
	nt := m.NT()
	if nt < cells {
		return fig11Render(m, nt)
	}
	return fig11Render(m, cells)
}

func fig11Render(m *sparse.Matrix, cells int) string {
	nt := m.NT()
	counts := make([][]int, cells)
	totals := make([][]int, cells)
	for i := range counts {
		counts[i] = make([]int, cells)
		totals[i] = make([]int, cells)
	}
	cell := func(t int) int {
		c := t * cells / nt
		if c >= cells {
			c = cells - 1
		}
		return c
	}
	for i := 0; i < nt; i++ {
		for j := 0; j < nt; j++ {
			totals[cell(i)][cell(j)]++
		}
		for _, j := range m.Row(i) {
			counts[cell(i)][cell(j)]++
		}
	}
	shades := []byte(" .:+*#")
	var b strings.Builder
	fmt.Fprintf(&b, "Fig11 — block-sparsity of the synthetic Yukawa operator matrix\n")
	fmt.Fprintf(&b, "n=%d, %d×%d tiles (max dim %d), %d retained (%.1f%% fill)\n\n",
		m.N, nt, nt, maxDim(m), m.NNZ(), 100*m.Fill())
	for i := 0; i < cells; i++ {
		for j := 0; j < cells; j++ {
			frac := 0.0
			if totals[i][j] > 0 {
				frac = float64(counts[i][j]) / float64(totals[i][j])
			}
			idx := int(frac * float64(len(shades)-1))
			b.WriteByte(shades[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func maxDim(m *sparse.Matrix) int {
	d := 0
	for i := 0; i < m.NT(); i++ {
		if m.Dim(i) > d {
			d = m.Dim(i)
		}
	}
	return d
}

// ProfileWithTimeline runs one POTRF configuration in virtual time and
// reports the per-kernel execution profile — which template task consumed
// the machine — alongside the makespan, a diagnostic the text tables of
// the figures don't show; with timeline it also renders the run's
// Chrome-trace JSON (load it in a chrome://tracing / Perfetto viewer).
func ProfileWithTimeline(scale Scale, timeline bool) (string, string) {
	machine := cluster.Hawk()
	grid := tile.Grid{N: 16384, NB: 512}
	nodes := 16
	if scale == Quick {
		grid = tile.Grid{N: 8192, NB: 512}
		nodes = 4
	}
	rt := sim.New(sim.Config{
		Ranks: nodes, Machine: machine, Flavor: cluster.ParsecFlavor(),
		Cost: cholesky.CostModel(grid, machine),
	})
	var tl *sim.Timeline
	if timeline {
		tl = rt.EnableTimeline()
	}
	rt.Run(func(p *sim.Proc) {
		g := ttg.NewGraphOn(p)
		app := cholesky.Build(g, cholesky.Options{Grid: grid, Phantom: true, Priorities: true})
		g.MakeExecutable()
		app.Seed()
		g.Fence()
	})
	var b strings.Builder
	fmt.Fprintf(&b, "POTRF N=%d NB=%d on %d nodes (Hawk model): makespan %.4g s\n",
		grid.N, grid.NB, nodes, rt.Now())
	fmt.Fprintf(&b, "%-10s %12s %14s %10s\n", "kernel", "tasks", "busy (s)", "share")
	totalBusy := 0.0
	for _, st := range rt.Profile() {
		totalBusy += st.Busy
	}
	for _, name := range []string{"POTRF", "TRSM", "SYRK", "GEMM", "RESULT"} {
		st, ok := rt.Profile()[name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-10s %12d %14.4g %9.1f%%\n", name, st.Tasks, st.Busy, 100*st.Busy/totalBusy)
	}
	fmt.Fprintf(&b, "aggregate worker occupancy: %.1f%%\n",
		100*totalBusy/(rt.Now()*float64(nodes)*float64(machine.Workers)))
	chrome := ""
	if tl != nil {
		chrome = tl.ChromeJSON()
	}
	return b.String(), chrome
}
