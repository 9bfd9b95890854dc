// Package cholesky implements the dense tiled Cholesky factorization
// (POTRF) of §III-B as a template task graph — the graph of Fig. 1 with
// the TRSM broadcast pattern of Listing 1 — plus the bulk-synchronous
// baselines the paper compares against (ScaLAPACK-model, SLATE-model).
// The DPLASMA-model and Chameleon-model comparators run the same TTG graph
// under different runtime flavors (see DESIGN.md §2.3).
//
// The right-looking algorithm: for each iteration k, POTRF factors the
// diagonal tile, TRSM solves the panel below it, SYRK updates the
// remaining diagonal, and GEMM updates the trailing submatrix:
//
//	A[k][k] = POTRF(A[k][k])
//	A[m][k] = A[m][k] · A[k][k]⁻ᵀ              (TRSM,  m > k)
//	A[m][m] -= A[m][k] · A[m][k]ᵀ              (SYRK,  m > k)
//	A[i][j] -= A[i][k] · A[j][k]ᵀ              (GEMM,  i > j > k)
package cholesky

import (
	"math"
	"sync"

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
	// TTGVariant is the paper's fully asynchronous task graph.
	TTGVariant Variant = iota
	// ScaLAPACKModel is bulk-synchronous: a barrier after the panel
	// (POTRF+TRSM) and another after the update (SYRK+GEMM) of every
	// iteration — the "no lookahead" compute flow of §III-B1.
	ScaLAPACKModel
	// SLATEModel barriers once per iteration, a slightly looser pipeline
	// that the paper groups with ScaLAPACK's scalability trend.
	SLATEModel
)

func (v Variant) String() string {
	switch v {
	case ScaLAPACKModel:
		return "scalapack"
	case SLATEModel:
		return "slate"
	}
	return "ttg"
}

// Options configure a Cholesky graph.
type Options struct {
	// Grid is the tiled matrix geometry.
	Grid tile.Grid
	// P, Q is the process grid for the 2D block-cyclic distribution;
	// zero means the squarest factorization of the rank count.
	P, Q int
	// Phantom runs with shape-only tiles (virtual-time mode).
	Phantom bool
	// Variant selects the synchronization structure.
	Variant Variant
	// Priorities enables the critical-path priority map (a paper feature;
	// disable for the ablation bench).
	Priorities bool
	// OnResult, when non-nil, receives every factored tile (L's lower
	// triangle including the diagonal) on its owner rank.
	OnResult func(i, j int, t *tile.Tile)
	// Miswire deliberately breaks the graph: TRSM drops its send on the
	// trsm_syrk edge, so every SYRK shell accumulates its carry input but
	// never its panel input and the factorization wedges. Fixture for the
	// graph doctor (`ttg-bench doctor -broken`) — never set it for real
	// runs.
	Miswire bool
}

// App is one rank's Cholesky graph.
type App struct {
	g    *ttg.Graph
	opts Options
	nt   int

	initPotrf ttg.Edge[ttg.Int1, *tile.Tile]
	potrfTrsm ttg.Edge[ttg.Int2, *tile.Tile]
	trsmA     ttg.Edge[ttg.Int2, *tile.Tile]
	trsmSyrk  ttg.Edge[ttg.Int2, *tile.Tile]
	syrkC     ttg.Edge[ttg.Int2, *tile.Tile]
	gemmRow   ttg.Edge[ttg.Int3, *tile.Tile]
	gemmCol   ttg.Edge[ttg.Int3, *tile.Tile]
	gemmC     ttg.Edge[ttg.Int3, *tile.Tile]
	result    ttg.Edge[ttg.Int2, *tile.Tile]

	// BSP machinery (ScaLAPACK/SLATE models).
	goPotrf ttg.Edge[ttg.Int1, ttg.Void]
	goTrsm  ttg.Edge[ttg.Int2, ttg.Void]
	goSyrk  ttg.Edge[ttg.Int2, ttg.Void]
	goGemm  ttg.Edge[ttg.Int3, ttg.Void]
	done    ttg.Edge[ttg.Int1, ttg.Void]

	// scratch recycles the POTRF and TRSM bodies' broadcast key lists
	// (*keyScratch): ttg.To packs them at send and keeps nothing, and
	// bodies run concurrently on every worker.
	scratch sync.Pool
}

// keyScratch is one body's broadcast key lists.
type keyScratch struct {
	trsms      []ttg.Int2
	rows, cols []ttg.Int3
}

// Build assembles the graph on g. Call Seed after MakeExecutable.
func Build(g *ttg.Graph, opts Options) *App {
	if opts.P == 0 || opts.Q == 0 {
		opts.P, opts.Q = keymap.Grid2D(g.Size())
	}
	a := &App{g: g, opts: opts, nt: opts.Grid.NT()}
	a.scratch.New = func() any { return new(keyScratch) }
	a.initPotrf = ttg.NewEdge[ttg.Int1, *tile.Tile]("init_potrf")
	a.potrfTrsm = ttg.NewEdge[ttg.Int2, *tile.Tile]("potrf_trsm")
	a.trsmA = ttg.NewEdge[ttg.Int2, *tile.Tile]("gemm_trsm")
	a.trsmSyrk = ttg.NewEdge[ttg.Int2, *tile.Tile]("trsm_syrk")
	a.syrkC = ttg.NewEdge[ttg.Int2, *tile.Tile]("syrk_chain")
	a.gemmRow = ttg.NewEdge[ttg.Int3, *tile.Tile]("trsm_gemm_row")
	a.gemmCol = ttg.NewEdge[ttg.Int3, *tile.Tile]("trsm_gemm_col")
	a.gemmC = ttg.NewEdge[ttg.Int3, *tile.Tile]("gemm_chain")
	a.result = ttg.NewEdge[ttg.Int2, *tile.Tile]("result")
	if opts.Variant != TTGVariant {
		a.goPotrf = ttg.NewEdge[ttg.Int1, ttg.Void]("go_potrf")
		a.goTrsm = ttg.NewEdge[ttg.Int2, ttg.Void]("go_trsm")
		a.goSyrk = ttg.NewEdge[ttg.Int2, ttg.Void]("go_syrk")
		a.goGemm = ttg.NewEdge[ttg.Int3, ttg.Void]("go_gemm")
		a.done = ttg.NewEdge[ttg.Int1, ttg.Void]("barrier_done")
	}
	a.build()
	return a
}

func (a *App) owner2(k ttg.Int2) int {
	return keymap.BlockCyclic2D(a.opts.P, a.opts.Q)(k)
}

// prio implements the critical-path priority map: deeper iterations first,
// and POTRF > TRSM > SYRK > GEMM within an iteration.
func (a *App) prio(k, kind int) int64 {
	if !a.opts.Priorities {
		return 0
	}
	return int64(k)*8 + int64(kind)
}

func (a *App) build() {
	nt := a.nt
	opts := a.opts
	bsp := opts.Variant != TTGVariant

	potrfBody := func(x *ttg.Ctx[ttg.Int1], t *tile.Tile) {
		k := x.Key()[0]
		if !t.IsPhantom() {
			if err := lapack.Potrf(t); err != nil {
				panic(err)
			}
		}
		s := a.scratch.Get().(*keyScratch)
		trsms := s.trsms[:0]
		for m := k + 1; m < nt; m++ {
			trsms = append(trsms, ttg.Int2{m, k})
		}
		ttg.BroadcastMulti(x, t, ttg.Borrow,
			ttg.To(a.result, ttg.Int2{k, k}),
			ttg.To(a.potrfTrsm, trsms...),
		)
		s.trsms = trsms
		a.scratch.Put(s)
		a.notifyBarrier(x, panelPhase(k, opts.Variant))
	}

	trsmBody := func(x *ttg.Ctx[ttg.Int2], lkk, amk *tile.Tile) {
		m, k := x.Key()[0], x.Key()[1]
		if !amk.IsPhantom() {
			lapack.Trsm(lkk, amk)
		}
		// The Listing 1 pattern: one broadcast to four terminal sets.
		s := a.scratch.Get().(*keyScratch)
		rows, cols := s.rows[:0], s.cols[:0]
		for j := k + 1; j < m; j++ {
			rows = append(rows, ttg.Int3{m, j, k})
		}
		for i := m + 1; i < nt; i++ {
			cols = append(cols, ttg.Int3{i, m, k})
		}
		syrks := []ttg.Int2{{m, k}}
		if opts.Miswire {
			// Broken-graph fixture: never feed SYRK's panel input.
			syrks = nil
		}
		ttg.BroadcastMulti(x, amk, ttg.Borrow,
			ttg.To(a.result, ttg.Int2{m, k}),
			ttg.To(a.trsmSyrk, syrks...),
			ttg.To(a.gemmRow, rows...),
			ttg.To(a.gemmCol, cols...),
		)
		s.rows, s.cols = rows, cols
		a.scratch.Put(s)
		a.notifyBarrier(x, panelPhase(k, opts.Variant))
	}

	syrkBody := func(x *ttg.Ctx[ttg.Int2], lmk, c *tile.Tile) {
		m, k := x.Key()[0], x.Key()[1]
		if !c.IsPhantom() {
			lapack.Syrk(c, lmk)
		}
		if k == m-1 {
			ttg.SendM(x, a.initPotrf, ttg.Int1{m}, c, ttg.Move)
		} else {
			ttg.SendM(x, a.syrkC, ttg.Int2{m, k + 1}, c, ttg.Move)
		}
		a.notifyBarrier(x, updatePhase(k, opts.Variant))
	}

	gemmBody := func(x *ttg.Ctx[ttg.Int3], lik, ljk, c *tile.Tile) {
		i, j, k := x.Key()[0], x.Key()[1], x.Key()[2]
		if !c.IsPhantom() {
			lapack.GemmNT(c, lik, ljk)
		}
		if k == j-1 {
			ttg.SendM(x, a.trsmA, ttg.Int2{i, j}, c, ttg.Move)
		} else {
			ttg.SendM(x, a.gemmC, ttg.Int3{i, j, k + 1}, c, ttg.Move)
		}
		a.notifyBarrier(x, updatePhase(k, opts.Variant))
	}

	potrfOpts := ttg.Options[ttg.Int1]{
		Keymap:  func(k ttg.Int1) int { return a.owner2(ttg.Int2{k[0], k[0]}) },
		Priomap: func(k ttg.Int1) int64 { return a.prio(k[0], 3) },
	}
	trsmOpts := ttg.Options[ttg.Int2]{
		Keymap:  a.owner2,
		Priomap: func(k ttg.Int2) int64 { return a.prio(k[1], 2) },
	}
	syrkOpts := ttg.Options[ttg.Int2]{
		Keymap:  func(k ttg.Int2) int { return a.owner2(ttg.Int2{k[0], k[0]}) },
		Priomap: func(k ttg.Int2) int64 { return a.prio(k[1], 1) },
	}
	gemmOpts := ttg.Options[ttg.Int3]{
		Keymap:  keymap.BlockCyclic2DFrom3(a.opts.P, a.opts.Q),
		Priomap: func(k ttg.Int3) int64 { return a.prio(k[2], 0) },
	}

	// Terminal access modes (the paper's const-ref vs mutable flows): the
	// factor tiles broadcast by POTRF/TRSM are only read downstream
	// (ConstInput), while each kernel's accumulation tile is mutated in
	// place (ReadWrite). The runtime shares the read-only fan-out and
	// materializes writer copies lazily.
	if !bsp {
		// Each kernel declares its key box (keybox.go).
		ttg.MakeTT1(a.g, "POTRF", ttg.Input(a.initPotrf).ReadWrite(),
			ttg.Out(a.result, a.potrfTrsm), potrfBody, potrfBox(nt).on(potrfOpts))
		ttg.MakeTT2(a.g, "TRSM", ttg.ConstInput(a.potrfTrsm), ttg.Input(a.trsmA).ReadWrite(),
			ttg.Out(a.result, a.trsmSyrk, a.gemmRow, a.gemmCol), trsmBody, panelBox(nt).on(trsmOpts))
		ttg.MakeTT2(a.g, "SYRK", ttg.ConstInput(a.trsmSyrk), ttg.Input(a.syrkC).ReadWrite(),
			ttg.Out(a.initPotrf, a.syrkC), syrkBody, panelBox(nt).on(syrkOpts))
		ttg.MakeTT3(a.g, "GEMM", ttg.ConstInput(a.gemmRow), ttg.ConstInput(a.gemmCol), ttg.Input(a.gemmC).ReadWrite(),
			ttg.Out(a.trsmA, a.gemmC), gemmBody, gemmBox(nt).on(gemmOpts))
	} else {
		// Bulk-synchronous variants: every kernel is additionally gated by
		// a GO token from the phase barrier. Terminals stay on default
		// access — the ScaLAPACK/SLATE-model libraries these comparators
		// emulate copy panels into workspaces rather than letting a runtime
		// own data lifetimes, so they must not inherit the TTG variant's
		// copy avoidance.
		ttg.MakeTT2(a.g, "POTRF", ttg.Input(a.initPotrf), ttg.Input(a.goPotrf),
			ttg.Out(a.result, a.potrfTrsm, a.done),
			func(x *ttg.Ctx[ttg.Int1], t *tile.Tile, _ ttg.Void) { potrfBody(x, t) },
			potrfOpts)
		ttg.MakeTT3(a.g, "TRSM", ttg.Input(a.potrfTrsm), ttg.Input(a.trsmA), ttg.Input(a.goTrsm),
			ttg.Out(a.result, a.trsmSyrk, a.gemmRow, a.gemmCol, a.done),
			func(x *ttg.Ctx[ttg.Int2], lkk, amk *tile.Tile, _ ttg.Void) { trsmBody(x, lkk, amk) },
			trsmOpts)
		ttg.MakeTT3(a.g, "SYRK", ttg.Input(a.trsmSyrk), ttg.Input(a.syrkC), ttg.Input(a.goSyrk),
			ttg.Out(a.initPotrf, a.syrkC, a.done),
			func(x *ttg.Ctx[ttg.Int2], lmk, c *tile.Tile, _ ttg.Void) { syrkBody(x, lmk, c) },
			syrkOpts)
		ttg.MakeTT4(a.g, "GEMM", ttg.Input(a.gemmRow), ttg.Input(a.gemmCol), ttg.Input(a.gemmC), ttg.Input(a.goGemm),
			ttg.Out(a.trsmA, a.gemmC, a.done),
			func(x *ttg.Ctx[ttg.Int3], lik, ljk, c *tile.Tile, _ ttg.Void) { gemmBody(x, lik, ljk, c) },
			gemmOpts)
		a.buildBarrier()
	}

	ttg.MakeTT1(a.g, "RESULT", ttg.ConstInput(a.result), nil,
		func(x *ttg.Ctx[ttg.Int2], t *tile.Tile) {
			if a.opts.OnResult != nil {
				// The callback stores the factor tile; keep it alive past
				// the task.
				x.Retain(t)
				a.opts.OnResult(x.Key()[0], x.Key()[1], t)
			}
		},
		ttg.Options[ttg.Int2]{Keymap: a.owner2},
	)
}

// panelPhase and updatePhase number the barrier phases per variant:
// ScaLAPACK: panel k = phase 2k, update k = phase 2k+1 (two barriers per
// iteration). SLATE: whole iteration k = phase k (one barrier).
func panelPhase(k int, v Variant) int {
	if v == ScaLAPACKModel {
		return 2 * k
	}
	return k
}
func updatePhase(k int, v Variant) int {
	if v == ScaLAPACKModel {
		return 2*k + 1
	}
	return k
}

// notifyBarrier reports kernel completion to the phase barrier (BSP only).
func (a *App) notifyBarrier(x ttg.Context, phase int) {
	if a.opts.Variant == TTGVariant {
		return
	}
	ttg.Send(x, a.done, ttg.Int1{phase}, ttg.Void{})
}

// phaseTasks counts the kernels in a phase (the barrier's stream size).
func (a *App) phaseTasks(phase int) int {
	nt := a.nt
	panel := func(k int) int { return 1 + (nt - k - 1) }                    // POTRF + TRSMs
	update := func(k int) int { return (nt - k - 1) + (nt-k-1)*(nt-k-2)/2 } // SYRKs + GEMMs
	if a.opts.Variant == ScaLAPACKModel {
		k := phase / 2
		if phase%2 == 0 {
			return panel(k)
		}
		return update(k)
	}
	return panel(phase) + update(phase)
}

// buildBarrier adds the BSP barrier template task: it collects one token
// per kernel of its phase and then releases every kernel of the next
// phase, reproducing the fork-join compute flow of the reference
// libraries.
func (a *App) buildBarrier() {
	nt := a.nt
	v := a.opts.Variant
	lastPhase := nt - 1
	if v == ScaLAPACKModel {
		lastPhase = 2*nt - 1
	}
	ttg.MakeTT1(a.g, "BARRIER",
		ttg.ReduceInput(a.done,
			func(acc, _ ttg.Void) ttg.Void { return acc },
			func(k ttg.Int1) int { return a.phaseTasks(k[0]) },
		),
		ttg.Out(a.goPotrf, a.goTrsm, a.goSyrk, a.goGemm),
		func(x *ttg.Ctx[ttg.Int1], _ ttg.Void) {
			phase := x.Key()[0]
			if phase >= lastPhase {
				return
			}
			a.releasePhase(x, phase+1)
		},
		ttg.Options[ttg.Int1]{Keymap: func(ttg.Int1) int { return 0 }},
	)
}

// releasePhase broadcasts GO tokens to every kernel of a phase.
func (a *App) releasePhase(x ttg.Context, phase int) {
	nt := a.nt
	var k int
	panel, update := true, true
	if a.opts.Variant == ScaLAPACKModel {
		k = phase / 2
		panel = phase%2 == 0
		update = !panel
	} else {
		k = phase
	}
	if panel {
		ttg.Send(x, a.goPotrf, ttg.Int1{k}, ttg.Void{})
		trsms := make([]ttg.Int2, 0, nt-k-1)
		for m := k + 1; m < nt; m++ {
			trsms = append(trsms, ttg.Int2{m, k})
		}
		if len(trsms) > 0 {
			ttg.Broadcast(x, a.goTrsm, trsms, ttg.Void{})
		}
	}
	if update {
		syrks := make([]ttg.Int2, 0, nt-k-1)
		gemms := make([]ttg.Int3, 0, (nt-k-1)*(nt-k-2)/2)
		for m := k + 1; m < nt; m++ {
			syrks = append(syrks, ttg.Int2{m, k})
			for j := k + 1; j < m; j++ {
				gemms = append(gemms, ttg.Int3{m, j, k})
			}
		}
		if len(syrks) > 0 {
			ttg.Broadcast(x, a.goSyrk, syrks, ttg.Void{})
		}
		if len(gemms) > 0 {
			ttg.Broadcast(x, a.goGemm, gemms, ttg.Void{})
		}
	}
}

// Seed injects this rank's tiles (the INITIATOR of Fig. 1): each rank
// seeds the tiles it owns. In BSP variants rank 0 additionally releases
// phase 0.
func (a *App) Seed() {
	nt := a.nt
	me := a.g.Rank()
	for i := 0; i < nt; i++ {
		for j := 0; j <= i; j++ {
			if a.owner2(ttg.Int2{i, j}) != me {
				continue
			}
			// Move: the freshly materialized tile belongs to the graph;
			// consumers take it without the per-seed clone a copying seed
			// would pay.
			t := a.InputTile(i, j)
			switch {
			case i == 0 && j == 0:
				ttg.SeedM(a.g, a.initPotrf, ttg.Int1{0}, t, ttg.Move)
			case i == j:
				ttg.SeedM(a.g, a.syrkC, ttg.Int2{i, 0}, t, ttg.Move)
			case j == 0:
				ttg.SeedM(a.g, a.trsmA, ttg.Int2{i, 0}, t, ttg.Move)
			default:
				ttg.SeedM(a.g, a.gemmC, ttg.Int3{i, j, 0}, t, ttg.Move)
			}
		}
	}
	if a.opts.Variant != TTGVariant && me == 0 {
		// Release phase 0: the panel of iteration 0, plus — in the
		// one-barrier-per-iteration SLATE model — its update kernels.
		ttg.Seed(a.g, a.goPotrf, ttg.Int1{0}, ttg.Void{})
		trsms := make([]ttg.Int2, 0, nt-1)
		for m := 1; m < nt; m++ {
			trsms = append(trsms, ttg.Int2{m, 0})
		}
		if len(trsms) > 0 {
			ttg.SeedBroadcast(a.g, a.goTrsm, trsms, ttg.Void{})
		}
		if a.opts.Variant == SLATEModel {
			syrks := make([]ttg.Int2, 0, nt-1)
			gemms := make([]ttg.Int3, 0, (nt-1)*(nt-2)/2)
			for m := 1; m < nt; m++ {
				syrks = append(syrks, ttg.Int2{m, 0})
				for j := 1; j < m; j++ {
					gemms = append(gemms, ttg.Int3{m, j, 0})
				}
			}
			if len(syrks) > 0 {
				ttg.SeedBroadcast(a.g, a.goSyrk, syrks, ttg.Void{})
			}
			if len(gemms) > 0 {
				ttg.SeedBroadcast(a.g, a.goGemm, gemms, ttg.Void{})
			}
		}
	}
}

// InputTile materializes tile (i, j) of the synthetic SPD input matrix
// (or a phantom of the right shape in virtual-time mode).
func (a *App) InputTile(i, j int) *tile.Tile {
	rows, cols := a.opts.Grid.Dim(i), a.opts.Grid.Dim(j)
	if a.opts.Phantom {
		return tile.Phantom(rows, cols)
	}
	t := tile.New(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			t.Set(r, c, Element(i*a.opts.Grid.NB+r, j*a.opts.Grid.NB+c))
		}
	}
	return t
}

// Element is the synthetic SPD test matrix: symmetric, strictly
// diagonally dominant (off-diagonal row sums are bounded by π²/3 < 4).
func Element(gi, gj int) float64 {
	if gi == gj {
		return 4
	}
	d := float64(gi - gj)
	return 1 / (1 + float64(d*d))
}

// Flops returns the factorization's flop count, N³/3.
func Flops(n int) float64 { f := float64(n); return f * f * f / 3 }

// CostModel returns the virtual-time cost of each kernel on machine m.
func CostModel(grid tile.Grid, m cluster.Machine) func(*core.Task) float64 {
	return func(t *core.Task) float64 {
		dim := func(i int) int { return grid.Dim(i) }
		switch t.TT.Name() {
		case "POTRF":
			k := core.Unpack[ttg.Int1](t.Key)[0]
			return lapack.PotrfFlops(dim(k)) / m.KernelRate
		case "TRSM":
			key := core.Unpack[ttg.Int2](t.Key)
			return lapack.TrsmFlops(dim(key[0]), dim(key[1])) / m.KernelRate
		case "SYRK":
			key := core.Unpack[ttg.Int2](t.Key)
			return lapack.SyrkFlops(dim(key[0]), dim(key[1])) / m.KernelRate
		case "GEMM":
			key := core.Unpack[ttg.Int3](t.Key)
			return lapack.GemmFlops(dim(key[0]), dim(key[1]), dim(key[2])) / m.KernelRate
		default:
			return 0
		}
	}
}

// Verify checks ‖(L·Lᵀ − A)‖_max over the lower triangle given the
// gathered factor tiles; the tolerance scales with N.
func Verify(grid tile.Grid, tiles map[ttg.Int2]*tile.Tile) (maxErr float64, ok bool) {
	n := grid.N
	nb := grid.NB
	l := func(i, j int) float64 {
		if j > i {
			return 0
		}
		t := tiles[ttg.Int2{i / nb, j / nb}]
		if t == nil {
			return math.NaN()
		}
		return t.At(i%nb, j%nb)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := 0.0
			for k := 0; k <= j; k++ {
				s += float64(l(i, k) * l(j, k))
			}
			if e := math.Abs(s - Element(i, j)); e > maxErr {
				maxErr = e
			}
		}
	}
	return maxErr, maxErr < 1e-8*float64(n)
}
