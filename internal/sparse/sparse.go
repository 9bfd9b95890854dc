// Package sparse generates the block-sparse matrices of the bspmm
// benchmark (§III-D). The paper uses the Yukawa integral operator
// exp(-r₁₂/5)/r₁₂ of the SARS-CoV-2 main protease (2,500 atoms, matrix
// order 140,440, atom panels grouped into tiles of at most 256, tiles with
// per-element Frobenius norm below 1e-8 dropped). That data is
// proprietary, so we generate a matrix with the same statistics: clustered
// atom geometry in a box, per-atom basis panels of irregular size grouped
// by the same ≤-max-tile rule, tile norms decaying with inter-cluster
// distance by the same Yukawa kernel, and the same drop threshold —
// preserving the irregular tile dimensions, distance-banded occupancy, and
// load imbalance that drive the benchmark.
package sparse

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/serde"
	"repro/internal/tile"
)

// Spec parameterizes the synthetic operator matrix.
type Spec struct {
	// Atoms is the atom count (paper: 2,500).
	Atoms int
	// MaxTile caps tile dimensions (paper: 256).
	MaxTile int
	// DropTol is the per-element norm threshold (paper: 1e-8).
	DropTol float64
	// Box is the cubic simulation box edge in Å.
	Box float64
	// DecayLen is the Yukawa screening length (paper: 5).
	DecayLen float64
	// FuncsMin/FuncsMax bound the per-atom basis size.
	FuncsMin, FuncsMax int
	// ClusterSize is the mean atoms per spatial cluster.
	ClusterSize int
	// Seed drives the deterministic generator.
	Seed int64
}

// DefaultSpec mirrors the paper's workload at configurable scale.
func DefaultSpec(atoms int) Spec {
	return Spec{
		Atoms:       atoms,
		MaxTile:     256,
		DropTol:     1e-8,
		Box:         200,
		DecayLen:    5,
		FuncsMin:    30,
		FuncsMax:    80,
		ClusterSize: 50,
		Seed:        42,
	}
}

// Matrix is a symmetric-blocked sparse matrix: panel sizes plus the set of
// retained tiles with their norms.
type Matrix struct {
	// Panels holds tile dimensions; Offsets the running sums.
	Panels  []int
	Offsets []int
	// N is the matrix order.
	N       int
	spec    Spec
	norms   map[serde.Int2]float64
	centers [][3]float64 // per-panel centroid
	byRow   [][]int      // nonzero column tiles per row tile
	byCol   [][]int
}

// Generate builds the synthetic matrix.
func Generate(spec Spec) *Matrix {
	rng := rand.New(rand.NewSource(spec.Seed))
	// Clustered atom geometry: cluster centers uniform in the box, atoms
	// normally distributed around them; atoms stay grouped by cluster, as
	// the molecular ordering groups bonded atoms.
	nclusters := (spec.Atoms + spec.ClusterSize - 1) / spec.ClusterSize
	type atom struct {
		pos   [3]float64
		funcs int
	}
	atoms := make([]atom, 0, spec.Atoms)
	for c := 0; c < nclusters; c++ {
		var center [3]float64
		for d := 0; d < 3; d++ {
			center[d] = rng.Float64() * spec.Box
		}
		for i := 0; i < spec.ClusterSize && len(atoms) < spec.Atoms; i++ {
			var p [3]float64
			for d := 0; d < 3; d++ {
				p[d] = center[d] + float64(rng.NormFloat64()*3)
			}
			atoms = append(atoms, atom{
				pos:   p,
				funcs: spec.FuncsMin + rng.Intn(spec.FuncsMax-spec.FuncsMin+1),
			})
		}
	}
	// Group consecutive atoms into tiles of at most MaxTile functions.
	m := &Matrix{spec: spec, norms: map[serde.Int2]float64{}}
	cur, n := 0, 0
	var csum [3]float64
	var catoms int
	flush := func() {
		if catoms == 0 {
			return
		}
		m.Panels = append(m.Panels, cur)
		m.centers = append(m.centers, [3]float64{csum[0] / float64(catoms), csum[1] / float64(catoms), csum[2] / float64(catoms)})
		cur, catoms, csum = 0, 0, [3]float64{}
	}
	for _, a := range atoms {
		if cur+a.funcs > spec.MaxTile {
			flush()
		}
		cur += a.funcs
		for d := 0; d < 3; d++ {
			csum[d] += a.pos[d]
		}
		catoms++
		n += a.funcs
	}
	flush()
	m.N = n
	m.Offsets = make([]int, len(m.Panels)+1)
	for i, p := range m.Panels {
		m.Offsets[i+1] = m.Offsets[i] + p
	}
	// Retain tiles whose Yukawa-kernel norm clears the drop threshold.
	nt := len(m.Panels)
	m.byRow = make([][]int, nt)
	m.byCol = make([][]int, nt)
	for i := 0; i < nt; i++ {
		for j := 0; j < nt; j++ {
			d := dist(m.centers[i], m.centers[j])
			norm := yukawa(d, spec.DecayLen)
			if norm >= spec.DropTol {
				m.norms[serde.Int2{i, j}] = norm
				m.byRow[i] = append(m.byRow[i], j)
				m.byCol[j] = append(m.byCol[j], i)
			}
		}
	}
	return m
}

func dist(a, b [3]float64) float64 {
	dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
	return math.Sqrt(float64(dx*dx) + float64(dy*dy) + float64(dz*dz))
}

// yukawa is the screened-Coulomb kernel exp(-r/λ)/r, regularized at the
// origin (diagonal tiles).
func yukawa(r, lambda float64) float64 {
	if r < 1 {
		r = 1
	}
	return math.Exp(-r/lambda) / r
}

// NT returns the number of tile rows/columns.
func (m *Matrix) NT() int { return len(m.Panels) }

// Dim returns panel i's extent.
func (m *Matrix) Dim(i int) int { return m.Panels[i] }

// Nonzero reports whether tile (i, j) was retained.
func (m *Matrix) Nonzero(i, j int) bool {
	_, ok := m.norms[serde.Int2{i, j}]
	return ok
}

// Norm returns tile (i, j)'s modeled per-element norm (0 if dropped).
func (m *Matrix) Norm(i, j int) float64 { return m.norms[serde.Int2{i, j}] }

// Row returns the nonzero column indices of row tile i.
func (m *Matrix) Row(i int) []int { return m.byRow[i] }

// Col returns the nonzero row indices of column tile j.
func (m *Matrix) Col(j int) []int { return m.byCol[j] }

// NNZ returns the retained tile count.
func (m *Matrix) NNZ() int { return len(m.norms) }

// Fill returns the retained fraction of the tile grid.
func (m *Matrix) Fill() float64 {
	nt := float64(m.NT())
	return float64(m.NNZ()) / (nt * nt)
}

// Materialize builds tile (i, j): deterministic pseudo-random entries
// scaled to the tile's modeled norm, or a phantom of the right shape.
func (m *Matrix) Materialize(i, j int, phantom bool) *tile.Tile {
	rows, cols := m.Dim(i), m.Dim(j)
	if phantom {
		return tile.Phantom(rows, cols)
	}
	t := tile.New(rows, cols)
	scale := m.Norm(i, j)
	h := uint64(i)*0x9E3779B97F4A7C15 ^ uint64(j)*0xC2B2AE3D27D4EB4F ^ uint64(m.spec.Seed)
	for idx := range t.Data {
		h ^= h >> 33
		h *= 0xFF51AFD7ED558CCD
		h ^= h >> 29
		t.Data[idx] = scale * (float64(h%2000)/1000 - 1)
	}
	return t
}

// MulTasks enumerates the multiply tasks of C = A·A: for every (i, j) the
// ordered list of k with A[i][k]≠0 and A[k][j]≠0. The map is keyed by the
// output tile.
func (m *Matrix) MulTasks() map[serde.Int2][]int {
	out := map[serde.Int2][]int{}
	nt := m.NT()
	for i := 0; i < nt; i++ {
		for _, k := range m.byRow[i] {
			for _, j := range m.byRow[k] {
				key := serde.Int2{i, j}
				out[key] = append(out[key], k)
			}
		}
	}
	// The double loop emits k in row-major order per i; sort per (i,j).
	for key, ks := range out {
		slices.Sort(ks)
		out[key] = ks
	}
	return out
}

// MulFlops returns the flop count of C = A·A over retained tiles.
func (m *Matrix) MulFlops() float64 {
	total := 0.0
	for i := range m.byRow {
		for _, k := range m.byRow[i] {
			for _, j := range m.byRow[k] {
				total += float64(2 * float64(m.Dim(i)) * float64(m.Dim(k)) * float64(m.Dim(j)))
			}
		}
	}
	return total
}
