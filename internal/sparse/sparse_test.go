package sparse

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"repro/internal/serde"
)

func small() *Matrix {
	spec := DefaultSpec(300)
	return Generate(spec)
}

func TestGenerateBasicInvariants(t *testing.T) {
	m := small()
	if m.NT() == 0 || m.N == 0 {
		t.Fatal("empty matrix")
	}
	sum := 0
	for i := 0; i < m.NT(); i++ {
		d := m.Dim(i)
		if d <= 0 || d > 256 {
			t.Fatalf("panel %d has dimension %d", i, d)
		}
		sum += d
	}
	if sum != m.N {
		t.Fatalf("panel sizes sum to %d, want %d", sum, m.N)
	}
	if m.Offsets[m.NT()] != m.N {
		t.Fatalf("offsets end at %d", m.Offsets[m.NT()])
	}
}

func TestDeterministic(t *testing.T) {
	a, b := small(), small()
	if a.NT() != b.NT() || a.NNZ() != b.NNZ() || a.N != b.N {
		t.Fatal("generator not deterministic")
	}
	ta := a.Materialize(0, 0, false)
	tb := b.Materialize(0, 0, false)
	if !ta.Equal(tb, 0) {
		t.Fatal("materialization not deterministic")
	}
}

func TestOccupancyIsSparseAndSymmetricPattern(t *testing.T) {
	m := small()
	fill := m.Fill()
	if fill <= 0.005 || fill >= 0.9 {
		t.Fatalf("fill = %v; expected meaningful block sparsity", fill)
	}
	for i := 0; i < m.NT(); i++ {
		if !m.Nonzero(i, i) {
			t.Fatalf("diagonal tile %d dropped", i)
		}
		for _, j := range m.Row(i) {
			if !m.Nonzero(j, i) {
				t.Fatalf("pattern asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestRowColConsistent(t *testing.T) {
	m := small()
	count := 0
	for i := 0; i < m.NT(); i++ {
		for _, j := range m.Row(i) {
			if !m.Nonzero(i, j) {
				t.Fatalf("Row lists dropped tile (%d,%d)", i, j)
			}
			count++
		}
	}
	if count != m.NNZ() {
		t.Fatalf("row lists cover %d tiles, NNZ=%d", count, m.NNZ())
	}
	colCount := 0
	for j := 0; j < m.NT(); j++ {
		colCount += len(m.Col(j))
	}
	if colCount != m.NNZ() {
		t.Fatalf("col lists cover %d tiles, NNZ=%d", colCount, m.NNZ())
	}
}

func TestNormsDecayWithDistance(t *testing.T) {
	m := small()
	// Diagonal norms should dominate typical far-off-diagonal norms.
	d0 := m.Norm(0, 0)
	far := m.NT() - 1
	if m.Nonzero(0, far) && m.Norm(0, far) > d0 {
		t.Fatalf("far tile norm %v exceeds diagonal %v", m.Norm(0, far), d0)
	}
}

func TestMulTasksConsistent(t *testing.T) {
	m := small()
	tasks := m.MulTasks()
	if len(tasks) == 0 {
		t.Fatal("no multiply tasks")
	}
	total := 0
	for key, ks := range tasks {
		if len(ks) == 0 {
			t.Fatalf("empty k list for %v", key)
		}
		for idx, k := range ks {
			if !m.Nonzero(key[0], k) || !m.Nonzero(k, key[1]) {
				t.Fatalf("task (%v, k=%d) references dropped tiles", key, k)
			}
			if idx > 0 && ks[idx-1] >= k {
				t.Fatalf("k list not strictly sorted for %v: %v", key, ks)
			}
		}
		total += len(ks)
	}
	// Cross-check the flop count.
	flops := 0.0
	for key, ks := range tasks {
		for _, k := range ks {
			flops += 2 * float64(m.Dim(key[0])) * float64(m.Dim(k)) * float64(m.Dim(key[1]))
		}
	}
	if flops != m.MulFlops() {
		t.Fatalf("MulFlops %v != enumerated %v", m.MulFlops(), flops)
	}
	_ = total
}

func TestMaterializeScalesWithNorm(t *testing.T) {
	m := small()
	diag := m.Materialize(0, 0, false)
	if diag.FrobeniusNorm() == 0 {
		t.Fatal("diagonal tile is zero")
	}
	ph := m.Materialize(0, 0, true)
	if !ph.IsPhantom() || ph.Rows != m.Dim(0) {
		t.Fatal("phantom shape wrong")
	}
}

func TestIrregularPanelSizes(t *testing.T) {
	m := small()
	sizes := map[int]bool{}
	for i := 0; i < m.NT(); i++ {
		sizes[m.Dim(i)] = true
	}
	if len(sizes) < 2 {
		t.Fatal("panels are uniform; expected irregular tiling")
	}
	_ = serde.Int2{}
}

// TestDefaultSpecPinned pins bspmm_madness's matrix, sparse.DefaultSpec(24):
// its panel sizes (internal/lapack's tests name them too), its tile count
// and a sha256 over every kept tile's (i, j, norm bits) in row-major
// order. yukawa's exp is lapack.Exp, whose bits no host's FMA can change,
// so neither may this digest.
func TestDefaultSpecPinned(t *testing.T) {
	m := Generate(DefaultSpec(24))
	if want := []int{227, 198, 241, 225, 193, 190, 119}; !slices.Equal(m.Panels, want) {
		t.Fatalf("panels %v, want %v", m.Panels, want)
	}
	if m.NNZ() != 49 {
		t.Fatalf("NNZ = %d, want 49", m.NNZ())
	}
	h := sha256.New()
	for i := 0; i < m.NT(); i++ {
		for _, j := range m.Row(i) {
			binary.Write(h, binary.LittleEndian, [3]uint64{uint64(i), uint64(j), math.Float64bits(m.Norm(i, j))})
		}
	}
	const want = "14a08d7981d8996a1a9a692cf003e5a5da96f0bd7cb9c30675191c73717f288d"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("norms digest %s, want %s", got, want)
	}
}
