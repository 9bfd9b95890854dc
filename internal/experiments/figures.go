package experiments

import (
	"fmt"
	"math"

	"repro/internal/apps/bspmm"
	"repro/internal/apps/cholesky"
	"repro/internal/apps/fw"
	"repro/internal/apps/mra"
	"repro/internal/backend/sim"
	"repro/internal/cluster"
	"repro/internal/lapack"
	"repro/internal/sparse"
	"repro/internal/tile"
	"repro/ttg"
)

// Scale selects sweep sizes: Quick keeps every figure under a few seconds
// for tests and testing.B benches; Full runs the paper-shaped geometry.
type Scale int

const (
	// Quick is the scaled-down sweep used by tests and benches.
	Quick Scale = iota
	// Full is the paper-shaped sweep used by cmd/ttg-bench.
	Full
)

// choleskyVariant pairs a plot series with its flavor and sync structure.
type choleskyVariant struct {
	name    string
	flavor  cluster.Flavor
	variant cholesky.Variant
	prio    bool
}

func choleskyVariants() []choleskyVariant {
	return []choleskyVariant{
		{"TTG/PaRSEC", cluster.ParsecFlavor(), cholesky.TTGVariant, true},
		{"TTG/MADNESS", cluster.MadnessFlavor(), cholesky.TTGVariant, true},
		{"DPLASMA", cluster.DPLASMAFlavor(), cholesky.TTGVariant, true},
		{"Chameleon", cluster.ChameleonFlavor(), cholesky.TTGVariant, true},
		{"SLATE", cluster.MPIRuntimeFlavor(), cholesky.SLATEModel, false},
		{"ScaLAPACK", cluster.MPIRuntimeFlavor(), cholesky.ScaLAPACKModel, false},
	}
}

// runCholesky returns the virtual makespan of one POTRF configuration.
func runCholesky(nodes int, grid tile.Grid, v choleskyVariant, machine cluster.Machine) float64 {
	return runVirtual(nodes, machine, v.flavor, cholesky.CostModel(grid, machine),
		graphMain(func(g *ttg.Graph) func() {
			app := cholesky.Build(g, cholesky.Options{
				Grid: grid, Phantom: true,
				Variant: v.variant, Priorities: v.prio,
			})
			return app.Seed
		}))
}

// Fig5 regenerates the POTRF weak-scaling experiment on the Hawk model:
// each node holds a fixed submatrix; the tile size is 512².
func Fig5(scale Scale) Figure {
	machine := cluster.Hawk()
	const nb = 512
	perNode := 8192
	nodes := []int{1, 2, 4, 8, 16, 32, 64}
	if scale == Quick {
		perNode = 4096
		nodes = []int{1, 4, 16}
	}
	f := Figure{
		ID: "Fig5", Title: "Weak scaling of POTRF (Hawk model); submatrix per node fixed",
		XLabel: "nodes", YLabel: "TFlop/s",
	}
	for _, n := range nodes {
		grid := tile.Grid{N: scaleN(perNode, n, nb), NB: nb}
		flops := cholesky.Flops(grid.N)
		for _, v := range choleskyVariants() {
			t := runCholesky(n, grid, v, machine)
			f.Points = append(f.Points, Point{Series: v.name, X: float64(n), Value: flops / t / 1e12, Time: t})
		}
	}
	return f
}

// scaleN grows a per-node submatrix edge to n nodes (weak scaling keeps
// memory per node constant: total area scales with n), rounded to tiles.
func scaleN(perNode, n, nb int) int {
	return int(math.Round(float64(perNode)*math.Sqrt(float64(n))/float64(nb))) * nb
}

// Fig6 regenerates the POTRF problem-size scaling at a fixed node count.
func Fig6(scale Scale) Figure {
	machine := cluster.Hawk()
	const nb = 512
	nodes := 64
	sizes := []int{16384, 32768, 49152, 65536, 81920, 98304}
	if scale == Quick {
		nodes = 16
		sizes = []int{8192, 16384, 24576}
	}
	f := Figure{
		ID: "Fig6", Title: fmt.Sprintf("POTRF matrix-size scaling on %d nodes (Hawk model); tile 512²", nodes),
		XLabel: "matrix size", YLabel: "TFlop/s",
	}
	for _, n := range sizes {
		grid := tile.Grid{N: n, NB: nb}
		flops := cholesky.Flops(grid.N)
		for _, v := range choleskyVariants() {
			t := runCholesky(nodes, grid, v, machine)
			f.Points = append(f.Points, Point{Series: v.name, X: float64(n), Value: flops / t / 1e12, Time: t})
		}
	}
	return f
}

// fwVariant pairs a series with flavor, sync structure, and block size.
type fwVariant struct {
	name    string
	flavor  cluster.Flavor
	variant fw.Variant
	nb      int
}

func runFW(nodes int, grid tile.Grid, v fwVariant, machine cluster.Machine) float64 {
	return runVirtual(nodes, machine, v.flavor, fw.CostModel(grid, machine),
		graphMain(func(g *ttg.Graph) func() {
			app := fw.Build(g, fw.Options{
				Grid: grid, Phantom: true,
				Variant: v.variant, Priorities: v.variant == fw.TTGVariant,
			})
			return app.Seed
		}))
}

func fwFigure(id string, machine cluster.Machine, matrix int, variants []fwVariant, nodes []int) Figure {
	f := Figure{
		ID: id, Title: fmt.Sprintf("FW-APSP strong scaling, %dk matrix (%s model)", matrix/1024, machine.Name),
		XLabel: "nodes", YLabel: "TFlop/s",
	}
	flops := fw.Flops(matrix)
	for _, n := range nodes {
		for _, v := range variants {
			grid := tile.Grid{N: matrix, NB: v.nb}
			t := runFW(n, grid, v, machine)
			f.Points = append(f.Points, Point{Series: v.name, X: float64(n), Value: flops / t / 1e12, Time: t})
		}
	}
	return f
}

// Fig8 regenerates the FW-APSP strong scaling on the Hawk model with
// block sizes 64/128/256 for TTG/PaRSEC and the comparison points for
// TTG/MADNESS and the MPI+OpenMP fork-join model.
func Fig8(scale Scale) Figure {
	machine := cluster.Hawk()
	matrix := 8192
	nodes := []int{1, 2, 4, 8, 16, 32, 64}
	if scale == Quick {
		matrix = 2048
		nodes = []int{1, 4, 16}
	}
	variants := []fwVariant{
		{"TTG/PaRSEC b=64", cluster.ParsecFlavor(), fw.TTGVariant, 64},
		{"TTG/PaRSEC b=128", cluster.ParsecFlavor(), fw.TTGVariant, 128},
		{"TTG/PaRSEC b=256", cluster.ParsecFlavor(), fw.TTGVariant, 256},
		{"TTG/MADNESS b=256", cluster.MadnessFlavor(), fw.TTGVariant, 256},
		{"MPI+OpenMP b=128", cluster.MPIRuntimeFlavor(), fw.ForkJoinModel, 128},
	}
	if scale == Quick {
		variants = []fwVariant{
			{"TTG/PaRSEC b=128", cluster.ParsecFlavor(), fw.TTGVariant, 128},
			{"TTG/MADNESS b=256", cluster.MadnessFlavor(), fw.TTGVariant, 256},
			{"MPI+OpenMP b=128", cluster.MPIRuntimeFlavor(), fw.ForkJoinModel, 128},
		}
	}
	return fwFigure("Fig8", machine, matrix, variants, nodes)
}

// Fig9 regenerates the FW-APSP strong scaling on the Seawulf model with
// block sizes 128/256.
func Fig9(scale Scale) Figure {
	machine := cluster.Seawulf()
	matrix := 8192
	nodes := []int{1, 2, 4, 8, 16, 32}
	if scale == Quick {
		matrix = 2048
		nodes = []int{1, 4, 16}
	}
	variants := []fwVariant{
		{"TTG/PaRSEC b=128", cluster.ParsecFlavor(), fw.TTGVariant, 128},
		{"TTG/PaRSEC b=256", cluster.ParsecFlavor(), fw.TTGVariant, 256},
		{"TTG/MADNESS b=256", cluster.MadnessFlavor(), fw.TTGVariant, 256},
		{"MPI+OpenMP b=128", cluster.MPIRuntimeFlavor(), fw.ForkJoinModel, 128},
	}
	if scale == Quick {
		variants = []fwVariant{variants[0], variants[3]}
	}
	return fwFigure("Fig9", machine, matrix, variants, nodes)
}

// Fig12 regenerates the block-sparse GEMM strong scaling: TTG 2D SUMMA on
// both backends against the DBCSR-model 2.5D SUMMA, on the synthetic
// Yukawa-statistics matrix.
func Fig12(scale Scale) Figure {
	machine := cluster.Hawk()
	atoms := 600
	nodes := []int{4, 8, 16, 32, 64, 128, 256}
	if scale == Quick {
		atoms = 150
		nodes = []int{4, 16, 64}
	}
	spec := sparse.DefaultSpec(atoms)
	if scale == Quick {
		spec.Box = 320 // keep the quick matrix at paper-like sparsity
	}
	mat := sparse.Generate(spec)
	flops := mat.MulFlops()
	f := Figure{
		ID:     "Fig12",
		Title:  fmt.Sprintf("Block-sparse GEMM strong scaling (Hawk model); n=%d, fill %.1f%%", mat.N, 100*mat.Fill()),
		XLabel: "nodes", YLabel: "TFlop/s",
	}
	type v struct {
		name    string
		flavor  cluster.Flavor
		variant bspmm.Variant
	}
	variants := []v{
		{"TTG/PaRSEC", cluster.ParsecFlavor(), bspmm.TTGVariant},
		{"TTG/MADNESS", cluster.MadnessFlavor(), bspmm.TTGVariant},
		{"DBCSR (2.5D)", cluster.MPIRuntimeFlavor(), bspmm.DBCSRModel},
		// The conversion the paper's §III-D anticipates; an extension here.
		{"TTG 2.5D (ext)", cluster.ParsecFlavor(), bspmm.TTG25D},
	}
	for _, n := range nodes {
		for _, vv := range variants {
			t := runVirtual(n, machine, vv.flavor, bspmm.CostModel(mat, machine),
				graphMain(func(g *ttg.Graph) func() {
					app := bspmm.Build(g, bspmm.Options{A: mat, Phantom: true, Variant: vv.variant})
					return app.Seed
				}))
			f.Points = append(f.Points, Point{Series: vv.name, X: float64(n), Value: flops / t / 1e12, Time: t})
		}
	}
	return f
}

// mraConfig sizes the MRA workload; virtual-time MRA runs the real
// numerics (the tree shape is data dependent), so Quick keeps it small.
func mraConfig(scale Scale) mra.Options {
	// Full runs use order 6 and a gentler exponent than the paper's
	// order-10/30,000 workload: the virtual-time backend executes the
	// real numerics (the adaptive tree is data dependent), and this
	// configuration gives paper-like tree depths and enough functions to
	// exercise 32-64 nodes at tractable wall time (see EXPERIMENTS.md).
	o := mra.Options{K: 6, D: 3, NFuncs: 128, Exponent: 4000, Tol: 1e-5, Seed: 11, TargetLevel: 3}
	if scale == Quick {
		o = mra.Options{K: 6, D: 3, NFuncs: 24, Exponent: 3000, Tol: 1e-5, Seed: 11, TargetLevel: 3}
	}
	return o
}

// runMRA executes the MRA pipeline (streamed or fenced) in virtual time.
func runMRA(nodes int, machine cluster.Machine, flavor cluster.Flavor, opts mra.Options, phased bool) float64 {
	if phased {
		opts.Variant = mra.NativeMADNESSModel
	}
	return runVirtual(nodes, machine, flavor, mra.CostModel(opts.K, opts.D, machine),
		func(p *sim.Proc) {
			g := ttg.NewGraphOn(p)
			app := mra.Build(g, opts)
			g.MakeExecutable()
			app.SeedProject()
			g.Fence()
			if phased {
				app.SeedCompressPhase()
				g.Fence()
				app.SeedReconstructPhase()
				g.Fence()
				app.SeedNormPhase()
				g.Fence()
			}
		})
}

// mraFigure builds Fig13a (Seawulf) or Fig13b (Hawk): execution time of
// the project+compress+reconstruct+norm pipeline, strong scaling.
func mraFigure(id string, machine cluster.Machine, nodes []int, scale Scale) Figure {
	opts := mraConfig(scale)
	f := Figure{
		ID:     id,
		Title:  fmt.Sprintf("MRA strong scaling (%s model); %d Gaussians, order %d", machine.Name, opts.NFuncs, opts.K),
		XLabel: "nodes", YLabel: "runs/s (1/time)",
	}
	type v struct {
		name   string
		flavor cluster.Flavor
		phased bool
	}
	variants := []v{
		{"TTG/PaRSEC", cluster.ParsecFlavor(), false},
		{"TTG/MADNESS", cluster.MadnessFlavor(), false},
		{"Native MADNESS", cluster.MadnessFlavor(), true},
	}
	for _, n := range nodes {
		for _, vv := range variants {
			t := runMRA(n, machine, vv.flavor, opts, vv.phased)
			f.Points = append(f.Points, Point{Series: vv.name, X: float64(n), Value: 1 / t, Time: t})
		}
	}
	return f
}

// Fig13a regenerates the MRA strong scaling on the Seawulf model.
func Fig13a(scale Scale) Figure {
	nodes := []int{1, 2, 4, 8, 16, 32}
	if scale == Quick {
		nodes = []int{1, 4, 16}
	}
	return mraFigure("Fig13a", cluster.Seawulf(), nodes, scale)
}

// Fig13b regenerates the MRA strong scaling on the Hawk model.
func Fig13b(scale Scale) Figure {
	nodes := []int{1, 2, 4, 8, 16, 32, 64}
	if scale == Quick {
		nodes = []int{1, 4, 16}
	}
	return mraFigure("Fig13b", cluster.Hawk(), nodes, scale)
}

// TableI reports the reproduction's software/model configuration, the
// analog of the paper's Table I.
func TableI() string {
	rows := [][2]string{
		{"Runtime (Hawk model)", describeMachine(cluster.Hawk())},
		{"Runtime (Seawulf model)", describeMachine(cluster.Seawulf())},
		{"PaRSEC flavor", describeFlavor(cluster.ParsecFlavor())},
		{"MADNESS flavor", describeFlavor(cluster.MadnessFlavor())},
		{"DPLASMA flavor", describeFlavor(cluster.DPLASMAFlavor())},
		{"Chameleon flavor", describeFlavor(cluster.ChameleonFlavor())},
		{"MPI flavor", describeFlavor(cluster.MPIRuntimeFlavor())},
		{"Dense kernels", "internal/lapack, " + lapack.Impl() + " path (real runs; the paper's MKL)"},
	}
	var b []byte
	for _, r := range rows {
		b = append(b, fmt.Sprintf("%-26s %s\n", r[0], r[1])...)
	}
	return string(b)
}

func describeMachine(m cluster.Machine) string {
	return fmt.Sprintf("%d workers/node, %.0f GF/s/core kernel rate, %.1f µs latency, %.0f GB/s links",
		m.Workers, m.KernelRate/1e9, m.Latency*1e6, m.Bandwidth/1e9)
}

func describeFlavor(f cluster.Flavor) string {
	return fmt.Sprintf("task %.1fµs, msg %.1fµs, splitmd=%v, tree-bcast=%v, tracks-data=%v",
		f.TaskOverhead*1e6, f.MsgOverhead*1e6, f.SplitMD, f.TreeBroadcast, f.TracksData)
}
