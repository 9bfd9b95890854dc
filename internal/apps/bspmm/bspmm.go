// Package bspmm implements the block-sparse matrix-matrix multiplication
// benchmark of §III-D: C = A·A over an irregularly tiled block-sparse
// matrix, as a 2D SUMMA template task graph (Fig. 10) with the paper's two
// control-flow feedback loops, both built on streaming terminals:
//
//  1. a read window — LStore tasks send tokens back to the ReadSp tasks so
//     only a bounded number of tile injections are in flight, and
//  2. a coordinator — local broadcasts (LBcast) towards the MultiplyAdd
//     kernels are released in batches as MultiplyAdd completions stream
//     into per-rank Coordinator tasks, focusing the scheduler on a subset
//     of tiles.
//
// The comparator is a DBCSR-model 2.5D SUMMA: ranks are split into
// replica layers that each process a slice of the k range behind per-step
// barriers, with a final inter-layer reduction — the communication-
// reducing structure that lets DBCSR keep strong-scaling past the 2D
// algorithm's limit (Fig. 12).
package bspmm

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/keymap"
	"repro/internal/lapack"
	"repro/internal/sparse"
	"repro/internal/tile"
	"repro/ttg"
)

// Variant selects the algorithm.
type Variant int

const (
	// TTGVariant is the 2D SUMMA flow graph of Fig. 10.
	TTGVariant Variant = iota
	// DBCSRModel is the bulk-synchronous 2.5D SUMMA comparator.
	DBCSRModel
	// TTG25D is the asynchronous 2.5D SUMMA the paper's §III-D predicts
	// would let TTG "at least match the strong-scaling performance of
	// DBCSR": the DBCSR model's replica-layer structure with the per-step
	// barriers removed — shifts, multiplies, and the inter-layer
	// reduction all flow freely.
	TTG25D
)

func (v Variant) String() string {
	switch v {
	case DBCSRModel:
		return "dbcsr"
	case TTG25D:
		return "ttg-2.5d"
	}
	return "ttg"
}

// Options configure a bspmm graph.
type Options struct {
	// A is the block-sparse input matrix (C = A·A).
	A *sparse.Matrix
	// Phantom runs with shape-only tiles.
	Phantom bool
	// Variant selects TTG 2D SUMMA or the DBCSR model.
	Variant Variant
	// ReadWindow bounds in-flight tile injections per owning rank
	// (feedback loop 1). Default 16.
	ReadWindow int
	// BatchSize is the LBcast release granularity (feedback loop 2).
	// Default 16.
	BatchSize int
	// CoordWindow is how many batches run ahead of completions. Default 4.
	CoordWindow int
	// Layers is the 2.5D replica count (DBCSR model; must divide the rank
	// count). Default: largest of {4, 2, 1} that divides ranks.
	Layers int
	// FlatReduce keeps the inter-layer ReduceC on point-to-point
	// owner-side reduction (the seed behavior) instead of the commutative
	// hierarchical reduction. Ablation comparator: with L contributing
	// layers the owner absorbs L-1 reducer messages per C tile flat vs
	// ≤⌈log₂L⌉ tree partials.
	FlatReduce bool
	// OnResult receives every product tile on its owner rank.
	OnResult func(i, j int, t *tile.Tile)
}

// App is one rank's bspmm graph.
type App struct {
	g    *ttg.Graph
	opts Options
	nt   int
	p, q int

	tasks map[ttg.Int2][]int // (i,j) -> sorted contributing ks

	// TTG-variant plumbing.
	readGateA, readGateB ttg.Edge[ttg.Int2, ttg.Void]
	storeA, storeB       ttg.Edge[ttg.Int3, *tile.Tile]
	lbTileA, lbTileB     ttg.Edge[ttg.Int3, *tile.Tile]
	lbGoA                ttg.Edge[ttg.Int3, ttg.Void]
	maA, maB, maC        ttg.Edge[ttg.Int3, *tile.Tile]
	coord                ttg.Edge[ttg.Int2, ttg.Void]
	outC                 ttg.Edge[ttg.Int2, *tile.Tile]

	// Read windows (per owning rank, identical on every rank).
	readOrderA, readOrderB map[int][]ttg.Int2
	readIndexA, readIndexB map[ttg.Int2]int

	// Coordinator batches (per rank).
	lbOrderA map[int][]ttg.Int2 // rank -> ordered (i,k) handled by LBcastA there
	lbBatch  map[[3]int]int     // (i,k,r) -> batch index

	// DBCSR-model plumbing.
	shiftGoA, shiftGoB ttg.Edge[ttg.Int2, ttg.Void] // key: (k, layer-step token target)
	reduceC            ttg.Edge[ttg.Int2, *tile.Tile]
	stepDone           ttg.Edge[ttg.Int2, ttg.Void] // key: (layer, step)
	layerKs            [][]int                      // ks per layer
	layerOf            map[int]int
	layerTasks         map[int]map[ttg.Int2][]int // layer -> (i,j) -> ks
}

// Build assembles the graph; call Seed after MakeExecutable.
func Build(g *ttg.Graph, opts Options) *App {
	if opts.ReadWindow <= 0 {
		opts.ReadWindow = 16
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 16
	}
	if opts.CoordWindow <= 0 {
		opts.CoordWindow = 4
	}
	if opts.Layers <= 0 {
		for _, c := range []int{4, 2, 1} {
			if g.Size()%c == 0 && g.Size() >= c*c {
				opts.Layers = c
				break
			}
		}
		if opts.Layers == 0 {
			opts.Layers = 1
		}
	}
	a := &App{g: g, opts: opts, nt: opts.A.NT()}
	a.p, a.q = keymap.Grid2D(g.Size())
	a.tasks = map[ttg.Int2][]int{}
	for k, v := range opts.A.MulTasks() {
		a.tasks[ttg.Int2(k)] = v
	}
	if opts.Variant == TTGVariant {
		a.buildTTG()
	} else {
		a.buildDBCSR()
	}
	return a
}

// ownerC maps output tile (i, j) to its rank (2D block cyclic).
func (a *App) ownerC(i, j int) int {
	return keymap.BlockCyclic2D(a.p, a.q)(ttg.Int2{i, j})
}

// receiversA returns the distinct ranks needing A[i][k], sorted.
func (a *App) receiversA(i, k int) []int {
	seen := map[int]bool{}
	var out []int
	for _, j := range a.opts.A.Row(k) {
		if _, ok := a.tasks[ttg.Int2{i, j}]; !ok {
			continue
		}
		r := a.ownerC(i, j)
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	slices.Sort(out)
	return out
}

// receiversB returns the distinct ranks needing B[k][j], sorted.
func (a *App) receiversB(k, j int) []int {
	seen := map[int]bool{}
	var out []int
	for _, i := range a.opts.A.Col(k) {
		if _, ok := a.tasks[ttg.Int2{i, j}]; !ok {
			continue
		}
		r := a.ownerC(i, j)
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	slices.Sort(out)
	return out
}

// Flops returns the multiplication's flop count.
func (a *App) Flops() float64 { return a.opts.A.MulFlops() }

// CostModel returns the virtual-time cost of each kernel.
func CostModel(m *sparse.Matrix, mach cluster.Machine) func(*core.Task) float64 {
	return func(t *core.Task) float64 {
		switch t.TT.Name() {
		case "MultiplyAdd":
			key := core.Unpack[ttg.Int3](t.Key)
			return lapack.GemmFlops(m.Dim(key[0]), m.Dim(key[1]), m.Dim(key[2])) / mach.KernelRate
		case "ReduceC":
			key := core.Unpack[ttg.Int2](t.Key)
			return float64(m.Dim(key[0])*m.Dim(key[1])) / mach.SmallOpRate
		default:
			return 0
		}
	}
}

func sortKeys(s []ttg.Int2) {
	less := func(a, b ttg.Int2) bool {
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[0] < b[0]
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// storageOwner distributes A's tiles for reading (same block cyclic map).
func (a *App) storageOwner(i, k int) int { return a.ownerC(i, k) }

// buildReadPlans computes, identically on every rank, each rank's ordered
// read list and the LBcast batch assignment.
func (a *App) buildReadPlans() {
	a.readOrderA = map[int][]ttg.Int2{}
	a.readOrderB = map[int][]ttg.Int2{}
	a.readIndexA = map[ttg.Int2]int{}
	a.readIndexB = map[ttg.Int2]int{}
	a.lbOrderA = map[int][]ttg.Int2{}
	a.lbBatch = map[[3]int]int{}
	nt := a.nt
	for i := 0; i < nt; i++ {
		for _, k := range a.opts.A.Row(i) {
			if len(a.receiversA(i, k)) > 0 {
				o := a.storageOwner(i, k)
				a.readOrderA[o] = append(a.readOrderA[o], ttg.Int2{i, k})
			}
			// B = A: tile (k', j) with k'=i, j=k.
			if len(a.receiversB(i, k)) > 0 {
				o := a.storageOwner(i, k)
				a.readOrderB[o] = append(a.readOrderB[o], ttg.Int2{i, k})
			}
		}
	}
	for r := range a.readOrderA {
		sortKeys(a.readOrderA[r])
		for n, key := range a.readOrderA[r] {
			a.readIndexA[key] = n
		}
	}
	for r := range a.readOrderB {
		sortKeys(a.readOrderB[r])
		for n, key := range a.readOrderB[r] {
			a.readIndexB[key] = n
		}
	}
	// LBcastA batches per receiving rank, ordered by (k, i) so the batch
	// order respects the MultiplyAdd chain order (ascending k), which
	// keeps the coordinator loop deadlock-free.
	for i := 0; i < nt; i++ {
		for _, k := range a.opts.A.Row(i) {
			for _, r := range a.receiversA(i, k) {
				a.lbOrderA[r] = append(a.lbOrderA[r], ttg.Int2{i, k})
			}
		}
	}
	for r := range a.lbOrderA {
		sortKeys(a.lbOrderA[r])
		for n, key := range a.lbOrderA[r] {
			a.lbBatch[[3]int{key[0], key[1], r}] = n / a.opts.BatchSize
		}
	}
}

// localMAsForA counts the MultiplyAdd tasks on rank r fed by A[i][k].
func (a *App) localMAsForA(i, k, r int) int {
	n := 0
	for _, j := range a.opts.A.Row(k) {
		if _, ok := a.tasks[ttg.Int2{i, j}]; ok && a.ownerC(i, j) == r {
			n++
		}
	}
	return n
}

// batchMACount is the coordinator's stream size: completions expected from
// the MultiplyAdds whose A tile sits in batch b on rank r.
func (a *App) batchMACount(r, b int) int {
	n := 0
	for _, key := range a.lbOrderA[r] {
		if a.lbBatch[[3]int{key[0], key[1], r}] == b {
			n += a.localMAsForA(key[0], key[1], r)
		}
	}
	return n
}

func (a *App) numBatches(r int) int {
	l := len(a.lbOrderA[r])
	if l == 0 {
		return 0
	}
	return (l + a.opts.BatchSize - 1) / a.opts.BatchSize
}

func (a *App) buildTTG() {
	a.buildReadPlans()
	g := a.g
	mat := a.opts.A

	a.readGateA = ttg.NewEdge[ttg.Int2, ttg.Void]("read_gate_a")
	a.readGateB = ttg.NewEdge[ttg.Int2, ttg.Void]("read_gate_b")
	a.storeA = ttg.NewEdge[ttg.Int3, *tile.Tile]("store_a")
	a.storeB = ttg.NewEdge[ttg.Int3, *tile.Tile]("store_b")
	a.lbTileA = ttg.NewEdge[ttg.Int3, *tile.Tile]("lbcast_a_tile")
	a.lbTileB = ttg.NewEdge[ttg.Int3, *tile.Tile]("lbcast_b_tile")
	a.lbGoA = ttg.NewEdge[ttg.Int3, ttg.Void]("lbcast_a_go")
	a.maA = ttg.NewEdge[ttg.Int3, *tile.Tile]("ma_a")
	a.maB = ttg.NewEdge[ttg.Int3, *tile.Tile]("ma_b")
	a.maC = ttg.NewEdge[ttg.Int3, *tile.Tile]("ma_c")
	a.coord = ttg.NewEdge[ttg.Int2, ttg.Void]("coordinator")
	a.outC = ttg.NewEdge[ttg.Int2, *tile.Tile]("out_c")

	// ReadSpA (Fig. 10): gated injection of A tiles. The gate stream
	// counts LStore acknowledgements of the read ReadWindow positions
	// earlier (size 1 for the seeded first window).
	gateSizeA := func(key ttg.Int2) int {
		o := a.storageOwner(key[0], key[1])
		n := a.readIndexA[key]
		if n < a.opts.ReadWindow {
			return 1
		}
		prev := a.readOrderA[o][n-a.opts.ReadWindow]
		return len(a.receiversA(prev[0], prev[1]))
	}
	ttg.MakeTT1(g, "ReadSpA",
		ttg.ReduceInput(a.readGateA, func(acc, _ ttg.Void) ttg.Void { return acc }, gateSizeA),
		ttg.Out(a.storeA),
		func(x *ttg.Ctx[ttg.Int2], _ ttg.Void) {
			i, k := x.Key()[0], x.Key()[1]
			t := mat.Materialize(i, k, a.opts.Phantom)
			var dests []ttg.Int3
			for _, r := range a.receiversA(i, k) {
				dests = append(dests, ttg.Int3{i, k, r})
			}
			ttg.BroadcastM(x, a.storeA, dests, t, ttg.Move)
		},
		ttg.Options[ttg.Int2]{Keymap: func(k ttg.Int2) int { return a.storageOwner(k[0], k[1]) }},
	)

	gateSizeB := func(key ttg.Int2) int {
		o := a.storageOwner(key[0], key[1])
		n := a.readIndexB[key]
		if n < a.opts.ReadWindow {
			return 1
		}
		prev := a.readOrderB[o][n-a.opts.ReadWindow]
		return len(a.receiversB(prev[0], prev[1]))
	}
	ttg.MakeTT1(g, "ReadSpB",
		ttg.ReduceInput(a.readGateB, func(acc, _ ttg.Void) ttg.Void { return acc }, gateSizeB),
		ttg.Out(a.storeB),
		func(x *ttg.Ctx[ttg.Int2], _ ttg.Void) {
			k, j := x.Key()[0], x.Key()[1]
			t := mat.Materialize(k, j, a.opts.Phantom)
			var dests []ttg.Int3
			for _, r := range a.receiversB(k, j) {
				dests = append(dests, ttg.Int3{k, j, r})
			}
			ttg.BroadcastM(x, a.storeB, dests, t, ttg.Move)
		},
		ttg.Options[ttg.Int2]{Keymap: func(k ttg.Int2) int { return a.storageOwner(k[0], k[1]) }},
	)

	// LStoreA: node-local tile store. Forwards the tile to the (gated)
	// local broadcast and acknowledges the read window (loop 1). The
	// store only reads the tile; the Move re-send escape-marks the held
	// value so the tracker never reclaims it under the forward.
	ttg.MakeTT1(g, "LStoreA", ttg.Input(a.storeA).ReadOnly(),
		ttg.Out(a.lbTileA, a.readGateA),
		func(x *ttg.Ctx[ttg.Int3], t *tile.Tile) {
			i, k := x.Key()[0], x.Key()[1]
			ttg.SendM(x, a.lbTileA, x.Key(), t, ttg.Move)
			o := a.storageOwner(i, k)
			next := a.readIndexA[ttg.Int2{i, k}] + a.opts.ReadWindow
			if next < len(a.readOrderA[o]) {
				ttg.Send(x, a.readGateA, a.readOrderA[o][next], ttg.Void{})
			}
		},
		ttg.Options[ttg.Int3]{Keymap: func(k ttg.Int3) int { return k[2] }},
	)
	ttg.MakeTT1(g, "LStoreB", ttg.Input(a.storeB).ReadOnly(),
		ttg.Out(a.lbTileB, a.readGateB),
		func(x *ttg.Ctx[ttg.Int3], t *tile.Tile) {
			k, j := x.Key()[0], x.Key()[1]
			ttg.SendM(x, a.lbTileB, x.Key(), t, ttg.Move)
			o := a.storageOwner(k, j)
			next := a.readIndexB[ttg.Int2{k, j}] + a.opts.ReadWindow
			if next < len(a.readOrderB[o]) {
				ttg.Send(x, a.readGateB, a.readOrderB[o][next], ttg.Void{})
			}
		},
		ttg.Options[ttg.Int3]{Keymap: func(k ttg.Int3) int { return k[2] }},
	)

	// LBcastA: coordinator-gated local fan-out to the MultiplyAdds
	// (loop 2); LBcastB fans out freely.
	ttg.MakeTT2(g, "LBcastA", ttg.Input(a.lbTileA).ReadOnly(), ttg.Input(a.lbGoA),
		ttg.Out(a.maA),
		func(x *ttg.Ctx[ttg.Int3], t *tile.Tile, _ ttg.Void) {
			i, k, r := x.Key()[0], x.Key()[1], x.Key()[2]
			var dests []ttg.Int3
			for _, j := range mat.Row(k) {
				if _, ok := a.tasks[ttg.Int2{i, j}]; ok && a.ownerC(i, j) == r {
					dests = append(dests, ttg.Int3{i, j, k})
				}
			}
			ttg.BroadcastM(x, a.maA, dests, t, ttg.Borrow)
		},
		ttg.Options[ttg.Int3]{Keymap: func(k ttg.Int3) int { return k[2] }},
	)
	ttg.MakeTT1(g, "LBcastB", ttg.Input(a.lbTileB).ReadOnly(),
		ttg.Out(a.maB),
		func(x *ttg.Ctx[ttg.Int3], t *tile.Tile) {
			k, j, r := x.Key()[0], x.Key()[1], x.Key()[2]
			var dests []ttg.Int3
			for _, i := range mat.Col(k) {
				if _, ok := a.tasks[ttg.Int2{i, j}]; ok && a.ownerC(i, j) == r {
					dests = append(dests, ttg.Int3{i, j, k})
				}
			}
			ttg.BroadcastM(x, a.maB, dests, t, ttg.Borrow)
		},
		ttg.Options[ttg.Int3]{Keymap: func(k ttg.Int3) int { return k[2] }},
	)

	a.buildMultiplyAdd(a.maA, a.maB, a.maC, a.outC, true)

	// Coordinator (loop 2): completions of batch b release batch
	// b + CoordWindow.
	ttg.MakeTT1(g, "Coordinator",
		ttg.ReduceInput(a.coord,
			func(acc, _ ttg.Void) ttg.Void { return acc },
			func(k ttg.Int2) int { return a.batchMACount(k[0], k[1]) },
		),
		ttg.Out(a.lbGoA),
		func(x *ttg.Ctx[ttg.Int2], _ ttg.Void) {
			r, b := x.Key()[0], x.Key()[1]
			a.releaseBatch(x, r, b+a.opts.CoordWindow)
		},
		ttg.Options[ttg.Int2]{Keymap: func(k ttg.Int2) int { return k[0] }},
	)

	a.buildOut(a.outC, nil)
}

// releaseBatch sends GO tokens to one rank's LBcastA batch.
func (a *App) releaseBatch(x ttg.Context, r, b int) {
	if b >= a.numBatches(r) {
		return
	}
	var keys []ttg.Int3
	for _, key := range a.lbOrderA[r] {
		if a.lbBatch[[3]int{key[0], key[1], r}] == b {
			keys = append(keys, ttg.Int3{key[0], key[1], r})
		}
	}
	if len(keys) > 0 {
		ttg.Broadcast(x, a.lbGoA, keys, ttg.Void{})
	}
}

// buildMultiplyAdd adds the MA kernel chaining C along the contributing
// ks of tasks (TTG) or layerTasks (DBCSR). coordinated enables the
// completion tokens of loop 2.
func (a *App) buildMultiplyAdd(aIn, bIn, cIn ttg.Edge[ttg.Int3, *tile.Tile], out ttg.Edge[ttg.Int2, *tile.Tile], coordinated bool) {
	outs := ttg.Out(cIn, out)
	if coordinated {
		outs = append(outs, ttg.Out(a.coord)...)
	}
	ttg.MakeTT3(a.g, "MultiplyAdd",
		ttg.ConstInput(aIn), ttg.ConstInput(bIn), ttg.Input(cIn).ReadWrite(),
		outs,
		func(x *ttg.Ctx[ttg.Int3], at, bt, ct *tile.Tile) {
			i, j, k := x.Key()[0], x.Key()[1], x.Key()[2]
			if !ct.IsPhantom() {
				lapack.GemmNN(ct, at, bt)
			}
			ks := a.chainKs(i, j)
			next := -1
			for idx, kk := range ks {
				if kk == k && idx+1 < len(ks) {
					next = ks[idx+1]
					break
				}
			}
			if next >= 0 {
				ttg.SendM(x, cIn, ttg.Int3{i, j, next}, ct, ttg.Move)
			} else {
				ttg.SendM(x, out, ttg.Int2{i, j}, ct, ttg.Move)
			}
			if coordinated {
				r := a.ownerC(i, j)
				b := a.lbBatch[[3]int{i, k, r}]
				ttg.Send(x, a.coord, ttg.Int2{r, b}, ttg.Void{})
			}
		},
		ttg.Options[ttg.Int3]{Keymap: func(k ttg.Int3) int { return a.ownerC(k[0], k[1]) }},
	)
}

// chainKs returns the C-chain order for output tile (i, j). Only the TTG
// variant uses it; the DBCSR model chains per layer inside its own kernel.
func (a *App) chainKs(i, j int) []int {
	return a.tasks[ttg.Int2{i, j}]
}

func (a *App) buildOut(in ttg.Edge[ttg.Int2, *tile.Tile], keymapFn func(ttg.Int2) int) {
	if keymapFn == nil {
		keymapFn = func(k ttg.Int2) int { return a.ownerC(k[0], k[1]) }
	}
	ttg.MakeTT1(a.g, "OutC", ttg.ConstInput(in), nil,
		func(x *ttg.Ctx[ttg.Int2], t *tile.Tile) {
			if a.opts.OnResult != nil {
				x.Retain(t) // result tiles outlive the task body
				a.opts.OnResult(x.Key()[0], x.Key()[1], t)
			}
		},
		ttg.Options[ttg.Int2]{Keymap: keymapFn},
	)
}

// Seed injects the initial control tokens and zero C tiles.
func (a *App) Seed() {
	if a.opts.Variant == TTGVariant {
		a.seedTTG()
	} else {
		a.seedDBCSR()
	}
}

func (a *App) seedTTG() {
	me := a.g.Rank()
	// Loop 1: release the first ReadWindow reads of this rank.
	for n, key := range a.readOrderA[me] {
		if n >= a.opts.ReadWindow {
			break
		}
		ttg.Seed(a.g, a.readGateA, key, ttg.Void{})
	}
	for n, key := range a.readOrderB[me] {
		if n >= a.opts.ReadWindow {
			break
		}
		ttg.Seed(a.g, a.readGateB, key, ttg.Void{})
	}
	// Loop 2: release the first CoordWindow LBcastA batches on this rank.
	var keys []ttg.Int3
	for _, key := range a.lbOrderA[me] {
		if a.lbBatch[[3]int{key[0], key[1], me}] < a.opts.CoordWindow {
			keys = append(keys, ttg.Int3{key[0], key[1], me})
		}
	}
	if len(keys) > 0 {
		ttg.SeedBroadcast(a.g, a.lbGoA, keys, ttg.Void{})
	}
	// Zero C tiles start each chain, owned locally; iterate in sorted key
	// order so virtual-time runs are deterministic.
	for _, key := range a.sortedTaskKeys() {
		if a.ownerC(key[0], key[1]) != me {
			continue
		}
		ks := a.tasks[key]
		ttg.SeedM(a.g, a.maC, ttg.Int3{key[0], key[1], ks[0]}, a.zeroC(key[0], key[1]), ttg.Move)
	}
}

// sortedTaskKeys returns the output-tile keys in deterministic order.
func (a *App) sortedTaskKeys() []ttg.Int2 {
	keys := make([]ttg.Int2, 0, len(a.tasks))
	for key := range a.tasks {
		keys = append(keys, key)
	}
	less := func(x, y ttg.Int2) bool {
		if x[0] != y[0] {
			return x[0] < y[0]
		}
		return x[1] < y[1]
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && less(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func (a *App) zeroC(i, j int) *tile.Tile {
	if a.opts.Phantom {
		return tile.Phantom(a.opts.A.Dim(i), a.opts.A.Dim(j))
	}
	return tile.New(a.opts.A.Dim(i), a.opts.A.Dim(j))
}

// Stats summarizes the instance for reports.
func (a *App) Stats() string {
	return fmt.Sprintf("nt=%d nnz=%d fill=%.3f tasks=%d flops=%.3g",
		a.nt, a.opts.A.NNZ(), a.opts.A.Fill(), a.numMATasks(), a.Flops())
}

func (a *App) numMATasks() int {
	n := 0
	for _, ks := range a.tasks {
		n += len(ks)
	}
	return n
}
