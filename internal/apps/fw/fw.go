// Package fw implements the tiled Floyd-Warshall all-pairs-shortest-path
// benchmark of §III-C. The parametric algorithm has four kernels (Fig. 7):
// per round k, kernel A relaxes the diagonal tile, kernels B and C relax
// the diagonal tile's row and column, and kernel D relaxes everything
// else. In the TTG variant tiles flow round-to-round with no global
// synchronization and panels are broadcast to successor tasks
// independently; the MPI+OpenMP comparator of Javanmard et al. is modeled
// by the same kernels under a barrier per round (the fork-join structure
// whose lost overlap the paper measures).
package fw

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/keymap"
	"repro/internal/lapack"
	"repro/internal/tile"
	"repro/ttg"
)

// Variant selects the synchronization structure.
type Variant int

const (
	// TTGVariant streams tiles between rounds asynchronously.
	TTGVariant Variant = iota
	// ForkJoinModel is the MPI+OpenMP comparator: a barrier per round.
	ForkJoinModel
)

func (v Variant) String() string {
	if v == ForkJoinModel {
		return "mpi+openmp"
	}
	return "ttg"
}

// Options configure an APSP graph.
type Options struct {
	// Grid is the tiled adjacency-matrix geometry.
	Grid tile.Grid
	// P, Q is the process grid (0 → squarest factorization).
	P, Q int
	// Phantom runs with shape-only tiles.
	Phantom bool
	// Variant selects TTG or the fork-join model.
	Variant Variant
	// Priorities prioritizes the critical diagonal chain.
	Priorities bool
	// Source supplies tile (i, j) of the initial distance matrix for
	// real runs; nil uses a deterministic random graph.
	Source func(i, j int) *tile.Tile
	// OnResult receives every fully relaxed tile on its owner rank.
	OnResult func(i, j int, t *tile.Tile)
}

// App is one rank's APSP graph.
type App struct {
	g    *ttg.Graph
	opts Options
	nt   int

	toA   ttg.Edge[ttg.Int1, *tile.Tile]
	toB   ttg.Edge[ttg.Int3, *tile.Tile]
	toC   ttg.Edge[ttg.Int3, *tile.Tile]
	toD   ttg.Edge[ttg.Int3, *tile.Tile]
	diagB ttg.Edge[ttg.Int3, *tile.Tile]
	diagC ttg.Edge[ttg.Int3, *tile.Tile]
	rowD  ttg.Edge[ttg.Int3, *tile.Tile]
	colD  ttg.Edge[ttg.Int3, *tile.Tile]
	out   ttg.Edge[ttg.Int2, *tile.Tile]

	goA  ttg.Edge[ttg.Int1, ttg.Void]
	goB  ttg.Edge[ttg.Int3, ttg.Void]
	goC  ttg.Edge[ttg.Int3, ttg.Void]
	goD  ttg.Edge[ttg.Int3, ttg.Void]
	done ttg.Edge[ttg.Int1, ttg.Void]
}

// Build assembles the graph; call Seed after MakeExecutable.
func Build(g *ttg.Graph, opts Options) *App {
	if opts.P == 0 || opts.Q == 0 {
		opts.P, opts.Q = keymap.Grid2D(g.Size())
	}
	a := &App{g: g, opts: opts, nt: opts.Grid.NT()}
	a.toA = ttg.NewEdge[ttg.Int1, *tile.Tile]("to_a")
	a.toB = ttg.NewEdge[ttg.Int3, *tile.Tile]("to_b")
	a.toC = ttg.NewEdge[ttg.Int3, *tile.Tile]("to_c")
	a.toD = ttg.NewEdge[ttg.Int3, *tile.Tile]("to_d")
	a.diagB = ttg.NewEdge[ttg.Int3, *tile.Tile]("diag_b")
	a.diagC = ttg.NewEdge[ttg.Int3, *tile.Tile]("diag_c")
	a.rowD = ttg.NewEdge[ttg.Int3, *tile.Tile]("row_d")
	a.colD = ttg.NewEdge[ttg.Int3, *tile.Tile]("col_d")
	a.out = ttg.NewEdge[ttg.Int2, *tile.Tile]("out")
	if opts.Variant == ForkJoinModel {
		a.goA = ttg.NewEdge[ttg.Int1, ttg.Void]("go_a")
		a.goB = ttg.NewEdge[ttg.Int3, ttg.Void]("go_b")
		a.goC = ttg.NewEdge[ttg.Int3, ttg.Void]("go_c")
		a.goD = ttg.NewEdge[ttg.Int3, ttg.Void]("go_d")
		a.done = ttg.NewEdge[ttg.Int1, ttg.Void]("fw_barrier")
	}
	a.build()
	return a
}

func (a *App) owner(i, j int) int {
	return keymap.BlockCyclic2D(a.opts.P, a.opts.Q)(ttg.Int2{i, j})
}

func (a *App) prio(k, kind int) int64 {
	if !a.opts.Priorities {
		return 0
	}
	return int64(k)*4 + int64(kind)
}

// chain routes tile (i, j) to its kernel in round r (or to the output
// collector after the last round). mode conveys the data semantics.
func (a *App) chain(x ttg.Context, i, j, r int, t *tile.Tile, mode ttg.Mode) {
	if r == a.nt {
		ttg.SendM(x, a.out, ttg.Int2{i, j}, t, mode)
		return
	}
	switch {
	case i == r && j == r:
		ttg.SendM(x, a.toA, ttg.Int1{r}, t, mode)
	case i == r:
		ttg.SendM(x, a.toB, ttg.Int3{i, j, r}, t, mode)
	case j == r:
		ttg.SendM(x, a.toC, ttg.Int3{i, j, r}, t, mode)
	default:
		ttg.SendM(x, a.toD, ttg.Int3{i, j, r}, t, mode)
	}
}

// chainTarget is chain as a broadcast target, so a panel broadcast and the
// tile's continuation to round r can travel as ONE emission — every
// consumer then shares a single tracked value and the round-r writer
// materializes its copy lazily, instead of the sender cloning eagerly.
func (a *App) chainTarget(i, j, r int) ttg.Target[*tile.Tile] {
	if r == a.nt {
		return ttg.To(a.out, ttg.Int2{i, j})
	}
	switch {
	case i == r && j == r:
		return ttg.To(a.toA, ttg.Int1{r})
	case i == r:
		return ttg.To(a.toB, ttg.Int3{i, j, r})
	case j == r:
		return ttg.To(a.toC, ttg.Int3{i, j, r})
	default:
		return ttg.To(a.toD, ttg.Int3{i, j, r})
	}
}

func (a *App) build() {
	nt := a.nt
	fj := a.opts.Variant == ForkJoinModel

	aBody := func(x *ttg.Ctx[ttg.Int1], t *tile.Tile) {
		k := x.Key()[0]
		if !t.IsPhantom() {
			lapack.FWKernelA(t)
		}
		bs, cs := make([]ttg.Int3, 0, nt-1), make([]ttg.Int3, 0, nt-1)
		for j := 0; j < nt; j++ {
			if j != k {
				bs = append(bs, ttg.Int3{k, j, k})
				cs = append(cs, ttg.Int3{j, k, k})
			}
		}
		if fj {
			// Fork-join comparator: the modeled MPI+OpenMP code copies the
			// panel; the borrowers still read the original, so the
			// continuation is an eager clone.
			ttg.BroadcastMulti(x, t, ttg.Borrow,
				ttg.To(a.diagB, bs...),
				ttg.To(a.diagC, cs...),
			)
			a.chain(x, k, k, k+1, t, ttg.Copy)
		} else {
			// One moved emission: readers and the round-k+1 continuation
			// share the tile; the next writer clones only if readers are
			// still live when it starts (copy-on-write).
			ttg.BroadcastMulti(x, t, ttg.Move,
				ttg.To(a.diagB, bs...),
				ttg.To(a.diagC, cs...),
				a.chainTarget(k, k, k+1),
			)
		}
		a.notify(x, k)
	}

	bBody := func(x *ttg.Ctx[ttg.Int3], t, diag *tile.Tile) {
		k := x.Key()[2]
		j := x.Key()[1]
		if !t.IsPhantom() {
			lapack.FWKernelB(t, diag)
		}
		ds := make([]ttg.Int3, 0, nt-1)
		for i := 0; i < nt; i++ {
			if i != k {
				ds = append(ds, ttg.Int3{i, j, k})
			}
		}
		if fj {
			ttg.BroadcastM(x, a.rowD, ds, t, ttg.Borrow)
			a.chain(x, k, j, k+1, t, ttg.Copy)
		} else {
			ttg.BroadcastMulti(x, t, ttg.Move,
				ttg.To(a.rowD, ds...),
				a.chainTarget(k, j, k+1),
			)
		}
		a.notify(x, k)
	}

	cBody := func(x *ttg.Ctx[ttg.Int3], t, diag *tile.Tile) {
		k := x.Key()[2]
		i := x.Key()[0]
		if !t.IsPhantom() {
			lapack.FWKernelC(t, diag)
		}
		ds := make([]ttg.Int3, 0, nt-1)
		for j := 0; j < nt; j++ {
			if j != k {
				ds = append(ds, ttg.Int3{i, j, k})
			}
		}
		if fj {
			ttg.BroadcastM(x, a.colD, ds, t, ttg.Borrow)
			a.chain(x, i, k, k+1, t, ttg.Copy)
		} else {
			ttg.BroadcastMulti(x, t, ttg.Move,
				ttg.To(a.colD, ds...),
				a.chainTarget(i, k, k+1),
			)
		}
		a.notify(x, k)
	}

	dBody := func(x *ttg.Ctx[ttg.Int3], t, col, row *tile.Tile) {
		i, j, k := x.Key()[0], x.Key()[1], x.Key()[2]
		if !t.IsPhantom() {
			lapack.FWKernelD(t, col, row)
		}
		a.chain(x, i, j, k+1, t, ttg.Move)
		a.notify(x, k)
	}

	aOpts := ttg.Options[ttg.Int1]{
		Keymap:  func(k ttg.Int1) int { return a.owner(k[0], k[0]) },
		Priomap: func(k ttg.Int1) int64 { return a.prio(k[0], 3) },
	}
	bOpts := ttg.Options[ttg.Int3]{
		Keymap:  keymap.BlockCyclic2DFrom3(a.opts.P, a.opts.Q),
		Priomap: func(k ttg.Int3) int64 { return a.prio(k[2], 2) },
	}
	cOpts := ttg.Options[ttg.Int3]{
		Keymap:  keymap.BlockCyclic2DFrom3(a.opts.P, a.opts.Q),
		Priomap: func(k ttg.Int3) int64 { return a.prio(k[2], 2) },
	}
	dOpts := ttg.Options[ttg.Int3]{
		Keymap:  keymap.BlockCyclic2DFrom3(a.opts.P, a.opts.Q),
		Priomap: func(k ttg.Int3) int64 { return a.prio(k[2], 1) },
	}

	allChain := ttg.Out(a.toA, a.toB, a.toC, a.toD, a.out)
	if !fj {
		// Each kernel relaxes its own tile in place (ReadWrite) while the
		// diagonal/row/column panels it consumes are only read (ConstInput).
		ttg.MakeTT1(a.g, "FW_A", ttg.Input(a.toA).ReadWrite(),
			append(ttg.Out(a.diagB, a.diagC), allChain...), aBody, aOpts)
		ttg.MakeTT2(a.g, "FW_B", ttg.Input(a.toB).ReadWrite(), ttg.ConstInput(a.diagB),
			append(ttg.Out(a.rowD), allChain...), bBody, bOpts)
		ttg.MakeTT2(a.g, "FW_C", ttg.Input(a.toC).ReadWrite(), ttg.ConstInput(a.diagC),
			append(ttg.Out(a.colD), allChain...), cBody, cOpts)
		ttg.MakeTT3(a.g, "FW_D", ttg.Input(a.toD).ReadWrite(), ttg.ConstInput(a.colD), ttg.ConstInput(a.rowD),
			allChain, dBody, dOpts)
	} else {
		ttg.MakeTT2(a.g, "FW_A", ttg.Input(a.toA), ttg.Input(a.goA),
			append(ttg.Out(a.diagB, a.diagC, a.done), allChain...),
			func(x *ttg.Ctx[ttg.Int1], t *tile.Tile, _ ttg.Void) { aBody(x, t) }, aOpts)
		ttg.MakeTT3(a.g, "FW_B", ttg.Input(a.toB), ttg.Input(a.diagB), ttg.Input(a.goB),
			append(ttg.Out(a.rowD, a.done), allChain...),
			func(x *ttg.Ctx[ttg.Int3], t, d *tile.Tile, _ ttg.Void) { bBody(x, t, d) }, bOpts)
		ttg.MakeTT3(a.g, "FW_C", ttg.Input(a.toC), ttg.Input(a.diagC), ttg.Input(a.goC),
			append(ttg.Out(a.colD, a.done), allChain...),
			func(x *ttg.Ctx[ttg.Int3], t, d *tile.Tile, _ ttg.Void) { cBody(x, t, d) }, cOpts)
		ttg.MakeTT4(a.g, "FW_D", ttg.Input(a.toD), ttg.Input(a.colD), ttg.Input(a.rowD), ttg.Input(a.goD),
			append(ttg.Out(a.done), allChain...),
			func(x *ttg.Ctx[ttg.Int3], t, col, row *tile.Tile, _ ttg.Void) { dBody(x, t, col, row) }, dOpts)
		a.buildBarrier()
	}

	ttg.MakeTT1(a.g, "FW_OUT", ttg.ConstInput(a.out), nil,
		func(x *ttg.Ctx[ttg.Int2], t *tile.Tile) {
			if a.opts.OnResult != nil {
				// The callback stores the tile; keep it alive past the task.
				x.Retain(t)
				a.opts.OnResult(x.Key()[0], x.Key()[1], t)
			}
		},
		ttg.Options[ttg.Int2]{Keymap: func(k ttg.Int2) int { return a.owner(k[0], k[1]) }},
	)
}

func (a *App) notify(x ttg.Context, round int) {
	if a.opts.Variant != ForkJoinModel {
		return
	}
	ttg.Send(x, a.done, ttg.Int1{round}, ttg.Void{})
}

// roundTasks is the barrier's stream size: every kernel of one round.
func (a *App) roundTasks() int {
	nt := a.nt
	return 1 + 2*(nt-1) + (nt-1)*(nt-1)
}

func (a *App) buildBarrier() {
	ttg.MakeTT1(a.g, "FW_BARRIER",
		ttg.ReduceInput(a.done,
			func(acc, _ ttg.Void) ttg.Void { return acc },
			func(ttg.Int1) int { return a.roundTasks() },
		),
		ttg.Out(a.goA, a.goB, a.goC, a.goD),
		func(x *ttg.Ctx[ttg.Int1], _ ttg.Void) {
			k := x.Key()[0]
			if k+1 >= a.nt {
				return
			}
			a.releaseRound(x, k+1)
		},
		ttg.Options[ttg.Int1]{Keymap: func(ttg.Int1) int { return 0 }},
	)
}

func (a *App) releaseRound(x ttg.Context, k int) {
	nt := a.nt
	ttg.Send(x, a.goA, ttg.Int1{k}, ttg.Void{})
	bs, cs := make([]ttg.Int3, 0, nt-1), make([]ttg.Int3, 0, nt-1)
	ds := make([]ttg.Int3, 0, (nt-1)*(nt-1))
	for i := 0; i < nt; i++ {
		if i == k {
			continue
		}
		bs = append(bs, ttg.Int3{k, i, k})
		cs = append(cs, ttg.Int3{i, k, k})
		for j := 0; j < nt; j++ {
			if j != k {
				ds = append(ds, ttg.Int3{i, j, k})
			}
		}
	}
	if len(bs) > 0 {
		ttg.Broadcast(x, a.goB, bs, ttg.Void{})
		ttg.Broadcast(x, a.goC, cs, ttg.Void{})
	}
	if len(ds) > 0 {
		ttg.Broadcast(x, a.goD, ds, ttg.Void{})
	}
}

// Seed injects this rank's tiles into round 0, plus the round-0 release in
// the fork-join model.
func (a *App) Seed() {
	nt := a.nt
	me := a.g.Rank()
	for i := 0; i < nt; i++ {
		for j := 0; j < nt; j++ {
			if a.owner(i, j) != me {
				continue
			}
			// Move: the freshly materialized tile belongs to the graph.
			t := a.InputTile(i, j)
			switch {
			case i == 0 && j == 0:
				ttg.SeedM(a.g, a.toA, ttg.Int1{0}, t, ttg.Move)
			case i == 0:
				ttg.SeedM(a.g, a.toB, ttg.Int3{i, j, 0}, t, ttg.Move)
			case j == 0:
				ttg.SeedM(a.g, a.toC, ttg.Int3{i, j, 0}, t, ttg.Move)
			default:
				ttg.SeedM(a.g, a.toD, ttg.Int3{i, j, 0}, t, ttg.Move)
			}
		}
	}
	if a.opts.Variant == ForkJoinModel && me == 0 {
		ttg.Seed(a.g, a.goA, ttg.Int1{0}, ttg.Void{})
		bs, cs := make([]ttg.Int3, 0, nt-1), make([]ttg.Int3, 0, nt-1)
		ds := make([]ttg.Int3, 0, (nt-1)*(nt-1))
		for i := 1; i < nt; i++ {
			bs = append(bs, ttg.Int3{0, i, 0})
			cs = append(cs, ttg.Int3{i, 0, 0})
			for j := 1; j < nt; j++ {
				ds = append(ds, ttg.Int3{i, j, 0})
			}
		}
		if len(bs) > 0 {
			ttg.SeedBroadcast(a.g, a.goB, bs, ttg.Void{})
			ttg.SeedBroadcast(a.g, a.goC, cs, ttg.Void{})
		}
		if len(ds) > 0 {
			ttg.SeedBroadcast(a.g, a.goD, ds, ttg.Void{})
		}
	}
}

// InputTile materializes tile (i, j) of the input distance matrix.
func (a *App) InputTile(i, j int) *tile.Tile {
	rows, cols := a.opts.Grid.Dim(i), a.opts.Grid.Dim(j)
	if a.opts.Phantom {
		return tile.Phantom(rows, cols)
	}
	if a.opts.Source != nil {
		return a.opts.Source(i, j)
	}
	nb := a.opts.Grid.NB
	t := tile.New(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			t.Set(r, c, EdgeWeight(i*nb+r, j*nb+c))
		}
	}
	return t
}

// EdgeWeight is the deterministic synthetic digraph: ~40% of edges exist
// with weights in [1, 10); diagonal is zero.
func EdgeWeight(gi, gj int) float64 {
	if gi == gj {
		return 0
	}
	h := uint64(gi)*0x9E3779B97F4A7C15 ^ uint64(gj)*0xC2B2AE3D27D4EB4F
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	if h%10 < 4 {
		return 1 + float64(h%9000)/1000
	}
	return lapack.Inf
}

// Flops returns the op count, 2N³ min-plus operations.
func Flops(n int) float64 { f := float64(n); return 2 * f * f * f }

// CostModel returns the virtual-time cost of each kernel. Min-plus tile
// updates are branch-heavy, so they sustain a fraction of the dgemm rate.
func CostModel(grid tile.Grid, m cluster.Machine) func(*core.Task) float64 {
	rate := m.KernelRate * 0.25
	return func(t *core.Task) float64 {
		var i, j, k int
		switch t.TT.Name() {
		case "FW_A":
			k = core.Unpack[ttg.Int1](t.Key)[0]
			i, j = k, k
		case "FW_B", "FW_C", "FW_D":
			key := core.Unpack[ttg.Int3](t.Key)
			i, j, k = key[0], key[1], key[2]
		default:
			return 0
		}
		return lapack.MinPlusFlops(grid.Dim(i), grid.Dim(j), grid.Dim(k)) / rate
	}
}
