package main

import (
	"math/rand"
	"sync"

	"repro/internal/apps/bspmm"
	"repro/internal/apps/cholesky"
	"repro/internal/apps/fw"
	"repro/internal/apps/mra"
	"repro/internal/lapack"
	"repro/internal/sparse"
	"repro/internal/tile"
	"repro/ttg"
)

// instance is one repetition's application: its seeded inputs and the
// place its results land.
type instance interface {
	// build adds this rank's graph to g and returns the function that
	// injects the rank's seeds. It runs once per rank, concurrently.
	build(g *ttg.Graph) (seed func())
	// check verifies the gathered results after every rank has fenced.
	// rng is seeded from -seed and the repetition index.
	check(rng *rand.Rand) error
}

// workload is one whole-application configuration. Sizes and task counts
// are fixed here; only the repetition count scales with -reps/-seconds.
type workload struct {
	name    string // as in BENCHMARK.json, which also says why it exists
	ranks   int
	workers int // per rank
	tcp     bool
	backend ttg.Backend
	// tasks is the nominal task count: tasks_per_s divides it by wall_s,
	// so a later change that fuses tasks is not scored as a slowdown. The
	// harness fails a repetition whose measured count differs (0: unchecked).
	tasks int64
	// expectS is the median wall_s recorded when this benchmark was
	// written; a repetition is abandoned as wedged after 10x this.
	expectS float64
	// traceCap is the obs event-buffer length per rank that holds a whole
	// traced repetition without drops.
	traceCap    int
	newInstance func(seed int64) instance
}

func (w *workload) totalWorkers() int { return w.ranks * w.workers }

// serial returns the plain single-threaded run of the same problem: the
// baseline scale.eff_2r divides by. Its task count goes unchecked because
// some graphs (bspmm's per-rank broadcasts) have fewer tasks on one rank.
func (w *workload) serial() *workload {
	s := *w
	s.name = w.name + "/1x1"
	s.ranks, s.workers, s.tcp, s.tasks = 1, 1, false, 0
	return &s
}

var workloads = []*workload{
	{
		name:  "potrf_serial",
		ranks: 1, workers: 1, backend: ttg.PaRSEC,
		tasks: 952, expectS: 0.70, traceCap: 1 << 14,
		newInstance: func(int64) instance { return newPotrf(2048, 128) },
	},
	{
		name:  "potrf_fine",
		ranks: 1, workers: 2, backend: ttg.PaRSEC,
		tasks: 366016, expectS: 1.3, traceCap: 3 << 20,
		newInstance: func(int64) instance { return newPotrf(2048, 16) },
	},
	{
		name:  "potrf_tcp",
		ranks: 2, workers: 1, tcp: true, backend: ttg.PaRSEC,
		tasks: 952, expectS: 0.71, traceCap: 1 << 14,
		newInstance: func(int64) instance { return newPotrf(2048, 128) },
	},
	{
		name:  "fw_tcp",
		ranks: 2, workers: 1, tcp: true, backend: ttg.PaRSEC,
		tasks: 33792, expectS: 0.75, traceCap: 1 << 18,
		newInstance: func(seed int64) instance { return newFW(1024, 32, seed) },
	},
	{
		name:  "bspmm_madness",
		ranks: 2, workers: 1, backend: ttg.MADNESS,
		tasks: 792, expectS: 0.80, traceCap: 1 << 14,
		newInstance: func(int64) instance { return newBspmm() },
	},
	{
		name:  "mra_stream",
		ranks: 2, workers: 1, backend: ttg.PaRSEC,
		tasks: 1864, expectS: 0.65, traceCap: 1 << 15,
		newInstance: func(int64) instance { return newMRA() },
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// tileStore gathers result tiles delivered on any rank.
type tileStore struct {
	mu    sync.Mutex
	tiles map[[2]int]*tile.Tile
}

func (s *tileStore) put(i, j int, t *tile.Tile) {
	s.mu.Lock()
	if s.tiles == nil {
		s.tiles = map[[2]int]*tile.Tile{}
	}
	s.tiles[[2]int{i, j}] = t
	s.mu.Unlock()
}

// --- Cholesky ---

type potrfInst struct {
	grid tile.Grid
	out  tileStore
}

func newPotrf(n, nb int) *potrfInst { return &potrfInst{grid: tile.Grid{N: n, NB: nb}} }

func (p *potrfInst) build(g *ttg.Graph) func() {
	return cholesky.Build(g, cholesky.Options{Grid: p.grid, Priorities: true, OnResult: p.out.put}).Seed
}

// --- Floyd-Warshall ---

type fwInst struct {
	grid tile.Grid
	seed uint64
	out  tileStore
}

func newFW(n, nb int, seed int64) *fwInst {
	return &fwInst{grid: tile.Grid{N: n, NB: nb}, seed: uint64(seed)}
}

// weight is the seeded digraph: about 40% of the edges exist with weights
// in [1, 10), as fw.EdgeWeight, but keyed by the seed.
func (f *fwInst) weight(gi, gj int) float64 {
	if gi == gj {
		return 0
	}
	h := uint64(gi)*0x9E3779B97F4A7C15 ^ uint64(gj)*0xC2B2AE3D27D4EB4F ^ f.seed*0xD6E8FEB86659FD93
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	if h%10 < 4 {
		return 1 + float64(h%9000)/1000
	}
	return lapack.Inf
}

func (f *fwInst) source(i, j int) *tile.Tile {
	rows, cols, nb := f.grid.Dim(i), f.grid.Dim(j), f.grid.NB
	t := tile.New(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			t.Data[r*cols+c] = f.weight(i*nb+r, j*nb+c)
		}
	}
	return t
}

func (f *fwInst) build(g *ttg.Graph) func() {
	return fw.Build(g, fw.Options{Grid: f.grid, Priorities: true, Source: f.source, OnResult: f.out.put}).Seed
}

// --- bspmm ---

type bspmmInst struct {
	mat *sparse.Matrix
	out tileStore
}

// newBspmm keeps DefaultSpec's own generator seed: in sparse.Generate the
// seed sets the panel sizes, so other seeds change the amount of work
// (546 to 792 tasks over seeds 1-7) and with it every metric.
func newBspmm() *bspmmInst {
	return &bspmmInst{mat: sparse.Generate(sparse.DefaultSpec(24))}
}

func (b *bspmmInst) build(g *ttg.Graph) func() {
	return bspmm.Build(g, bspmm.Options{A: b.mat, OnResult: b.out.put}).Seed
}

// --- MRA ---

type mraInst struct {
	opts  mra.Options
	mu    sync.Mutex
	norms map[int]float64
}

// newMRA fixes the seed of the Gaussians' centres at 7, the value the MRA
// tests and CLI use: the centres decide how deep each tree refines, so
// other seeds change the task count (1853 to 2062 over seeds 1-7), and
// seed 5 misses the 1e-5 norm tolerance at this truncation threshold.
func newMRA() *mraInst {
	m := &mraInst{norms: map[int]float64{}}
	m.opts = mra.Options{K: 8, D: 3, NFuncs: 8, Exponent: 600, Tol: 1e-7, Seed: 7,
		OnNorm: func(f int, n float64) {
			m.mu.Lock()
			m.norms[f] = n
			m.mu.Unlock()
		}}
	return m
}

func (m *mraInst) build(g *ttg.Graph) func() {
	return mra.Build(g, m.opts).SeedProject
}
