package bspmm

import (
	"math"
	"sync"
	"testing"

	"repro/internal/backend/sim"
	"repro/internal/cluster"
	"repro/internal/sparse"
	"repro/internal/tile"
	"repro/internal/trace"
	"repro/ttg"
)

// TestDBCSRHierarchicalReductionCounts pins the acceptance bound for the
// reduction tree on the 8-rank, 8-layer 2.5D SUMMA: with layerSize 1 each
// layer's C partial for tile (i, j) originates on rank l, so the flat
// baseline delivers one reducer message per remote contributing layer to
// the tile owner — up to P-1 per tile — while the binomial tree bounds the
// owner's in-degree at ceil(log2 P) = 3 partials per tile.
func TestDBCSRHierarchicalReductionCounts(t *testing.T) {
	const ranks, layers = 8, 8
	spec := sparse.DefaultSpec(150)
	m := sparse.Generate(spec)
	machine := cluster.Hawk()

	run := func(flat bool) (trace.Snapshot, *App) {
		rt := sim.New(sim.Config{
			Ranks: ranks, Machine: machine,
			Flavor: cluster.ParsecFlavor(),
			Cost:   CostModel(m, machine),
		})
		var app *App // rank 0's: every rank derives the same task tables
		rt.Run(func(p *sim.Proc) {
			g := ttg.NewGraphOn(p)
			a := Build(g, Options{
				A: m, Phantom: true, Variant: DBCSRModel,
				Layers: layers, FlatReduce: flat,
			})
			if p.Rank() == 0 {
				app = a
			}
			g.MakeExecutable()
			a.Seed()
			g.Fence()
		})
		var snap trace.Snapshot
		for r := 0; r < ranks; r++ {
			snap = snap.Add(rt.Proc(r).Tracer().Snapshot())
		}
		return snap, app
	}

	tree, app := run(false)
	flat, _ := run(true)

	// Expected flat traffic, exactly: for each C tile, one reducer message
	// per contributing layer whose layer owner (rank l at layerSize 1) is
	// not the tile owner.
	var flatWant, tiles, multiTiles int64
	for key := range app.tasks {
		tiles++
		owner := app.ownerC(key[0], key[1])
		n := 0
		for l := 0; l < layers; l++ {
			if len(app.layerTasks[l][key]) == 0 {
				continue
			}
			if app.ownerCLayer(key[0], key[1], l) != owner {
				n++
			}
		}
		flatWant += int64(n)
		if n > 0 {
			multiTiles++
		}
	}
	if multiTiles == 0 {
		t.Fatal("matrix too sparse: no tile has remote contributing layers")
	}
	if flat.RemoteReducerMsgs != flatWant {
		t.Fatalf("flat baseline: %d remote reducer messages, geometry predicts %d",
			flat.RemoteReducerMsgs, flatWant)
	}
	if flat.ReduceDeliveries != 0 || flat.ReduceLocalFolds != 0 {
		t.Fatalf("flat baseline used the combiner: deliveries=%d folds=%d",
			flat.ReduceDeliveries, flat.ReduceLocalFolds)
	}

	logP := int64(math.Ceil(math.Log2(ranks))) // 3
	if bound := multiTiles * logP; tree.ReduceDeliveries > bound {
		t.Fatalf("tree: owners received %d partials for %d reduced tiles, bound %d (ceil(log2 %d)=%d per tile)",
			tree.ReduceDeliveries, multiTiles, bound, ranks, logP)
	}
	if tree.ReduceDeliveries == 0 {
		t.Fatal("tree reduction never delivered a partial")
	}
	if tree.RemoteReducerMsgs != 0 {
		t.Fatalf("tree mode still sent %d flat reducer messages", tree.RemoteReducerMsgs)
	}
	// The headline claim: per-tile owner in-degree drops from up to P-1
	// flat messages to <= ceil(log2 P) tree partials.
	flatPerTile := float64(flat.RemoteReducerMsgs) / float64(multiTiles)
	treePerTile := float64(tree.ReduceDeliveries) / float64(multiTiles)
	if treePerTile > float64(logP) {
		t.Fatalf("tree per-tile deliveries %.2f exceed ceil(log2 P) = %d", treePerTile, logP)
	}
	t.Logf("8-rank 8-layer SUMMA, %d reduced tiles: flat %.2f msgs/tile -> tree %.2f partials/tile (folds=%d hops=%d bytes-saved=%d)",
		multiTiles, flatPerTile, treePerTile,
		tree.ReduceLocalFolds, tree.ReduceHops, tree.ReduceBytesSaved)
}

// TestDBCSRFlatReduceCorrect keeps the ablation comparator honest: the
// FlatReduce path must still compute the exact product on a real backend.
func TestDBCSRFlatReduceCorrect(t *testing.T) {
	m := smallMatrix()
	var mu sync.Mutex
	results := map[ttg.Int2]*tile.Tile{}
	ttg.Run(ttg.Config{Ranks: 4, WorkersPerRank: 2}, func(pc *ttg.Process) {
		g := pc.NewGraph()
		app := Build(g, Options{
			A: m, Variant: DBCSRModel, Layers: 2, FlatReduce: true,
			OnResult: func(i, j int, tl *tile.Tile) {
				mu.Lock()
				results[ttg.Int2{i, j}] = tl
				mu.Unlock()
			},
		})
		g.MakeExecutable()
		app.Seed()
		g.Fence()
	})
	expectProduct(t, m, results)
}
