package lapack

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
	"repro/internal/tile"
)

// randSPD builds a random symmetric positive-definite tile.
func randSPD(n int, rng *rand.Rand) *tile.Tile {
	b := tile.New(n, n)
	for i := range b.Data {
		b.Data[i] = float64(rng.Float64()) - 0.5
	}
	a := tile.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += float64(b.At(i, k) * b.At(j, k))
			}
			a.Set(i, j, s)
		}
		a.Add(i, i, float64(n))
	}
	return a
}

func reconstructLLT(l *tile.Tile) *tile.Tile {
	n := l.Rows
	c := tile.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k <= min(i, j); k++ {
				s += float64(l.At(i, k) * l.At(j, k))
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func TestPotrfReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 16, 33} {
		a := randSPD(n, rng)
		orig := a.Clone()
		if err := Potrf(a); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reconstructLLT(a).Equal(orig, 1e-8*float64(n)) {
			t.Fatalf("n=%d: L·Lᵀ does not reconstruct A", n)
		}
	}
}

func TestPotrfRejectsIndefinite(t *testing.T) {
	a := tile.New(2, 2)
	a.Set(0, 0, -1)
	if err := Potrf(a); err != ErrNotPositiveDefinite {
		t.Fatalf("err = %v", err)
	}
}

func TestTrsmSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, m := 8, 5
	l := randSPD(n, rng)
	if err := Potrf(l); err != nil {
		t.Fatal(err)
	}
	x := tile.New(m, n) // the true solution
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	// b = x · Lᵀ: b[i][j] = Σ_k x[i][k]·(Lᵀ)[k][j] = Σ_{k≤j} x[i][k]·L[j][k]
	b := tile.New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k <= j; k++ {
				s += float64(x.At(i, k) * l.At(j, k))
			}
			b.Set(i, j, s)
		}
	}
	Trsm(l, b)
	if !b.Equal(x, 1e-9) {
		t.Fatal("Trsm did not recover X from X·Lᵀ")
	}
}

func TestSyrkMatchesGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, k := 6, 4
	a := tile.New(n, k)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	c1 := randSPD(n, rng)
	c2 := c1.Clone()
	Syrk(c1, a)
	GemmNT(c2, a, a)
	// Syrk only updates the lower triangle.
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if c1.At(i, j) != c2.At(i, j) {
				t.Fatalf("(%d,%d): syrk %v gemm %v (one dot product, so the same bits)", i, j, c1.At(i, j), c2.At(i, j))
			}
		}
	}
}

func TestGemmNNKnownProduct(t *testing.T) {
	a := tile.New(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	b := tile.New(3, 2)
	copy(b.Data, []float64{7, 8, 9, 10, 11, 12})
	c := tile.New(2, 2)
	GemmNN(c, a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("c[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

// referenceFW runs the scalar Floyd-Warshall on a dense distance matrix.
func referenceFW(d [][]float64) {
	n := len(d)
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if v := d[i][k] + d[k][j]; v < d[i][j] {
					d[i][j] = v
				}
			}
		}
	}
}

func randDist(n int, rng *rand.Rand) [][]float64 {
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			switch {
			case i == j:
				d[i][j] = 0
			case rng.Float64() < 0.4:
				d[i][j] = 1 + float64(rng.Float64()*9)
			default:
				d[i][j] = Inf
			}
		}
	}
	return d
}

// TestTiledFWMatchesReference runs the full single-node tiled algorithm
// (kernels A, B, C, D in the Fig. 7 order) against the scalar reference.
func TestTiledFWMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, nb = 24, 6
	nt := n / nb
	d := randDist(n, rng)
	want := make([][]float64, n)
	for i := range want {
		want[i] = append([]float64(nil), d[i]...)
	}
	referenceFW(want)

	// Tile the matrix.
	tiles := make([][]*tile.Tile, nt)
	for bi := range tiles {
		tiles[bi] = make([]*tile.Tile, nt)
		for bj := range tiles[bi] {
			tl := tile.New(nb, nb)
			for i := 0; i < nb; i++ {
				for j := 0; j < nb; j++ {
					tl.Set(i, j, d[bi*nb+i][bj*nb+j])
				}
			}
			tiles[bi][bj] = tl
		}
	}
	for k := 0; k < nt; k++ {
		FWKernelA(tiles[k][k])
		for j := 0; j < nt; j++ {
			if j != k {
				FWKernelB(tiles[k][j], tiles[k][k])
			}
		}
		for i := 0; i < nt; i++ {
			if i != k {
				FWKernelC(tiles[i][k], tiles[k][k])
			}
		}
		for i := 0; i < nt; i++ {
			for j := 0; j < nt; j++ {
				if i != k && j != k {
					FWKernelD(tiles[i][j], tiles[i][k], tiles[k][j])
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			got := tiles[i/nb][j/nb].At(i%nb, j%nb)
			if math.Abs(got-want[i][j]) > 1e-9 {
				t.Fatalf("(%d,%d): tiled %v reference %v", i, j, got, want[i][j])
			}
		}
	}
}

// TestFWKernelDProperty: kernel D never increases any entry and computes
// the exact min-plus product bound.
func TestFWKernelDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 5
		a := tile.New(n, n)
		b := tile.New(n, n)
		c := tile.New(n, n)
		for i := range a.Data {
			a.Data[i] = rng.Float64() * 10
			b.Data[i] = rng.Float64() * 10
			c.Data[i] = rng.Float64() * 10
		}
		before := c.Clone()
		FWKernelD(c, a, b)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := before.At(i, j)
				for k := 0; k < n; k++ {
					if v := a.At(i, k) + b.At(k, j); v < want {
						want = v
					}
				}
				if c.At(i, j) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFlopCounts(t *testing.T) {
	if PotrfFlops(10) != 1000.0/3 {
		t.Errorf("PotrfFlops: %v", PotrfFlops(10))
	}
	if GemmFlops(2, 3, 4) != 48 {
		t.Errorf("GemmFlops: %v", GemmFlops(2, 3, 4))
	}
	if TrsmFlops(2, 3) != 18 {
		t.Errorf("TrsmFlops: %v", TrsmFlops(2, 3))
	}
	if SyrkFlops(3, 5) != 45 {
		t.Errorf("SyrkFlops: %v", SyrkFlops(3, 5))
	}
	if MinPlusFlops(2, 2, 2) != 16 {
		t.Errorf("MinPlusFlops: %v", MinPlusFlops(2, 2, 2))
	}
}

// Naive reference kernels: element-at-a-time loop nests, written without
// the package's helpers, that the blocked kernels must equal exactly on
// random tiles (including non-multiple-of-4 shapes that exercise the unroll
// tails). GemmNT and Syrk sum in refDot's order; GemmNN and FWKernelD have
// one chain per element, in p order.

// refDot is the summation order GemmNT and Syrk promise: four partial
// sums over p mod 4, reduced as (s0+s1)+(s2+s3), then the k%4 leftovers in
// order; every product rounded before it is added.
func refDot(a, b *tile.Tile, i, j int) float64 {
	k := a.Cols
	var s [4]float64
	for p := 0; p < k&^3; p++ {
		s[p%4] += float64(a.At(i, p) * b.At(j, p))
	}
	sum := (s[0] + s[1]) + (s[2] + s[3])
	for p := k &^ 3; p < k; p++ {
		sum += float64(a.At(i, p) * b.At(j, p))
	}
	return sum
}

func naiveSyrk(c, a *tile.Tile) {
	for i := 0; i < c.Rows; i++ {
		for j := 0; j <= i; j++ {
			c.Set(i, j, c.At(i, j)-refDot(a, a, i, j))
		}
	}
}

func naiveGemmNT(c, a, b *tile.Tile) {
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			c.Set(i, j, c.At(i, j)-refDot(a, b, i, j))
		}
	}
}

func naiveGemmNN(c, a, b *tile.Tile) {
	m, n, k := c.Rows, c.Cols, a.Cols
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.At(i, p)
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				c.Add(i, j, float64(av*b.At(p, j)))
			}
		}
	}
}

func naiveFWKernelD(c, a, b *tile.Tile) {
	m, n, kk := c.Rows, c.Cols, a.Cols
	for i := 0; i < m; i++ {
		for k := 0; k < kk; k++ {
			aik := a.At(i, k)
			if aik >= Inf {
				continue
			}
			for j := 0; j < n; j++ {
				if v := aik + b.At(k, j); v < c.At(i, j) {
					c.Set(i, j, v)
				}
			}
		}
	}
}

func randTile(rows, cols int, rng *rand.Rand) *tile.Tile {
	t := tile.New(rows, cols)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

// BenchmarkTrsm times Trsm at the Cholesky tile sizes of the bench
// workloads (nb 16 and 128) and between. Each call first restores B,
// since repeated solves would shrink it into denormals; the copy is n²
// moves against n³ flops.
func BenchmarkTrsm(b *testing.B) {
	for _, n := range []int{16, 32, 128} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			l := randSPD(n, rng)
			if err := Potrf(l); err != nil {
				b.Fatal(err)
			}
			x0, x := randTile(n, n, rng), tile.New(n, n)
			for range b.N {
				copy(x.Data, x0.Data)
				Trsm(l, x)
			}
			b.ReportMetric(TrsmFlops(n, n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GF/s")
		})
	}
}

// BenchmarkGemmNN times GemmNN on bspmm's shapes, the consecutive panel
// triples of sparse.DefaultSpec(24), none of whose n is a multiple of 8,
// and on 224×192×240, which is whole 4×8 blocks only.
func BenchmarkGemmNN(b *testing.B) {
	p := sparse.Generate(sparse.DefaultSpec(24)).Panels
	shapes := [][3]int{{224, 192, 240}}
	for i := 0; i+2 < len(p); i++ {
		shapes = append(shapes, [3]int{p[i], p[i+1], p[i+2]})
	}
	for _, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		b.Run(fmt.Sprintf("%dx%dx%d", m, n, k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			c, a, bb := randTile(m, n, rng), randTile(m, k, rng), randTile(k, n, rng)
			for range b.N {
				GemmNN(c, a, bb)
			}
			b.ReportMetric(GemmFlops(m, n, k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GF/s")
		})
	}
}

// BenchmarkMul times Mul on the three shapes of an mra_stream contraction
// (k = 8, d = 3): mode 0's 8×64 block, mode 1's 8×8 blocks and the last
// mode's 64 rows against Mᵀ.
func BenchmarkMul(b *testing.B) {
	for _, s := range [][3]int{{8, 64, 8}, {8, 8, 8}, {64, 8, 8}} {
		m, n, k := s[0], s[1], s[2]
		b.Run(fmt.Sprintf("%dx%dx%d", m, n, k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			c, a, bb := randTile(m, n, rng), randTile(m, k, rng), randTile(k, n, rng)
			for range b.N {
				Mul(c, a, bb)
			}
			b.ReportMetric(GemmFlops(m, n, k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GF/s")
		})
	}
}

func TestBlockedKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Shapes chosen to hit the unroll tails (n % 4 ∈ {0,1,2,3}).
	shapes := [][3]int{{8, 8, 8}, {7, 5, 9}, {16, 13, 6}, {1, 1, 1}, {3, 17, 31}}
	for _, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		a := randTile(m, k, rng)
		b := randTile(n, k, rng)
		c1 := randTile(m, n, rng)
		c2 := c1.Clone()
		GemmNT(c1, a, b)
		naiveGemmNT(c2, a, b)
		if !c1.Equal(c2, 0) {
			t.Fatalf("GemmNT mismatch at %v (must be bitwise: same summation order)", s)
		}

		bnn := randTile(k, n, rng)
		// Inject zeros so the block-sparse skip path is exercised.
		for i := 0; i < len(a.Data); i += 3 {
			a.Data[i] = 0
		}
		c3 := randTile(m, n, rng)
		c4 := c3.Clone()
		GemmNN(c3, a, bnn)
		naiveGemmNN(c4, a, bnn)
		if !c3.Equal(c4, 0) {
			t.Fatalf("GemmNN mismatch at %v (must be bitwise: same order)", s)
		}
		// Mul: the same A, zeros and all, and one chain per element, from
		// +0.0 and in p order, with nothing skipped.
		Mul(c3, a, bnn)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				sum := 0.0
				for p := 0; p < k; p++ {
					sum += float64(a.At(i, p) * bnn.At(p, j))
				}
				if c3.At(i, j) != sum {
					t.Fatalf("Mul mismatch at %v, element (%d,%d) (must be bitwise: same order)", s, i, j)
				}
			}
		}
	}
	for _, n := range []int{1, 4, 7, 16, 33} {
		k := n + 3
		a := randTile(n, k, rng)
		c1 := randTile(n, n, rng)
		c2 := c1.Clone()
		Syrk(c1, a)
		naiveSyrk(c2, a)
		if !c1.Equal(c2, 0) {
			t.Fatalf("Syrk mismatch at n=%d (must be bitwise: same summation order)", n)
		}
	}
	for _, s := range [][3]int{{8, 8, 8}, {7, 5, 9}, {16, 13, 6}, {5, 21, 3}} {
		m, n, k := s[0], s[1], s[2]
		a := randTile(m, k, rng)
		b := randTile(k, n, rng)
		// Sprinkle Inf to exercise the no-path skip.
		for i := 0; i < len(a.Data); i += 4 {
			a.Data[i] = Inf
		}
		c1 := randTile(m, n, rng)
		c2 := c1.Clone()
		FWKernelD(c1, a, b)
		naiveFWKernelD(c2, a, b)
		if !c1.Equal(c2, 0) {
			t.Fatalf("FWKernelD mismatch at %v (min-plus is exact)", s)
		}
	}
}
