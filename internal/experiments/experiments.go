// Package experiments regenerates every table and figure of the paper's
// evaluation (§III) on the virtual-time backend: the same template task
// graphs the correctness tests run, executed over calibrated machine
// models of the Hawk and Seawulf systems at the paper's node counts. The
// absolute numbers are model outputs; the experiment shapes — who wins,
// by what factor, where scaling stops — are the reproduction targets
// (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/backend/sim"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/ttg"
)

// Point is one measurement: series name, x coordinate, and the metric
// (TFlop/s for the throughput figures, seconds for the time figures).
type Point struct {
	Series string
	X      float64
	Value  float64
	// Time is the virtual execution time in seconds (always recorded).
	Time float64
}

// Figure is a regenerated table/figure.
type Figure struct {
	ID, Title      string
	XLabel, YLabel string
	Points         []Point
}

// Render prints the figure as an aligned text table, one row per x value
// and one column per series — the harness's analog of the paper's plots.
func (f Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "x = %s, values = %s\n", f.XLabel, f.YLabel)
	series := []string{}
	seen := map[string]bool{}
	xsSeen := map[float64]bool{}
	xs := []float64{}
	cell := map[string]map[float64]float64{}
	for _, p := range f.Points {
		if !seen[p.Series] {
			seen[p.Series] = true
			series = append(series, p.Series)
			cell[p.Series] = map[float64]float64{}
		}
		if !xsSeen[p.X] {
			xsSeen[p.X] = true
			xs = append(xs, p.X)
		}
		cell[p.Series][p.X] = p.Value
	}
	sort.Float64s(xs)
	fmt.Fprintf(&b, "%12s", f.XLabel)
	for _, s := range series {
		fmt.Fprintf(&b, " %18s", s)
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&b, "%12g", x)
		for _, s := range series {
			if v, ok := cell[s][x]; ok {
				fmt.Fprintf(&b, " %18.4g", v)
			} else {
				fmt.Fprintf(&b, " %18s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the figure as series,x,value,time rows.
func (f Figure) CSV() string {
	var b strings.Builder
	b.WriteString("series,x,value,time_s\n")
	for _, p := range f.Points {
		fmt.Fprintf(&b, "%s,%g,%g,%g\n", p.Series, p.X, p.Value, p.Time)
	}
	return b.String()
}

// Get returns the value for (series, x).
func (f Figure) Get(series string, x float64) (float64, bool) {
	for _, p := range f.Points {
		if p.Series == series && p.X == x {
			return p.Value, true
		}
	}
	return 0, false
}

// Best returns the series with the highest value at x.
func (f Figure) Best(x float64) (string, float64) {
	best, bv := "", 0.0
	for _, p := range f.Points {
		if p.X == x && p.Value > bv {
			best, bv = p.Series, p.Value
		}
	}
	return best, bv
}

// runVirtual executes one SPMD program on a fresh virtual cluster and
// returns the virtual makespan in seconds. The main is called once per
// rank; it must build, seed, and fence (possibly repeatedly). The
// returned time covers all fences.
func runVirtual(ranks int, machine cluster.Machine, flavor cluster.Flavor,
	cost func(*core.Task) float64, main func(p *sim.Proc)) float64 {
	rt := sim.New(sim.Config{
		Ranks:   ranks,
		Machine: machine,
		Flavor:  flavor,
		Cost:    cost,
	})
	rt.Run(main)
	return rt.Now()
}

// graphMain adapts the common single-fence pattern: build a typed graph,
// seed it, fence.
func graphMain(build func(g *ttg.Graph) func()) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		g := ttg.NewGraphOn(p)
		seed := build(g)
		g.MakeExecutable()
		seed()
		g.Fence()
	}
}
