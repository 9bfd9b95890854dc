// Package lapack implements the dense kernels the applications need: the
// Cholesky kernel set (POTRF, TRSM, SYRK, GEMM over tiles, as in Fig. 1),
// the min-plus kernels A–D of the tiled Floyd-Warshall algorithm (Fig. 7),
// the block-sparse GemmNN of bspmm and the exact product Mul that MRA's
// mode contractions run on. It substitutes for the MKL of Table I in real
// (correctness) runs; virtual-time runs charge the flop counts reported
// by the *Flops helpers against the machine model instead of executing.
//
// The Go loops in this file are the reference: they own the loop order,
// the edge rows and columns, the unroll tails and the zero / no-path
// skips, and they are all that runs where useAVX2 is false. On an amd64
// CPU with AVX2 the inner loops run in the micro-kernels of
// kernels_amd64.s instead, which produce the same bits (DESIGN.md §18).
// GemmNN runs whole on its 4×8 block kernel, its m%4 rows and n%8 columns
// on zero-padded copies; Potrf, Trsm's rows past its last 16-row panel,
// Mul's m%4 rows and n%8 columns and the column edges of GemmNT, Syrk and
// the min-plus kernels stay in Go.
// Every product is written float64(x*y): the explicit conversion forbids
// the compiler to fuse it into the add that follows (GOAMD64=v3, arm64),
// so the reference rounds twice everywhere, as the micro-kernels do.
package lapack

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/tile"
)

// useAVX2 routes the inner loops through kernels_amd64.s. It is what the
// CPU reports at package init and nothing else; only tests clear it, to
// run the reference loops beside the micro-kernels in one process.
var useAVX2 = detectAVX2()

// Impl names the kernel path this process runs: "avx2" or "generic".
func Impl() string {
	if useAVX2 {
		return "avx2"
	}
	return "generic"
}

// checkShapes panics, naming the kernel and its operands' shapes in
// argument order, unless the kernel's shape relation ok holds and every
// operand's Data holds its Rows×Cols elements. The micro-kernels index
// without bounds checks, so each exported kernel calls it before it
// touches anything, on either path; trailing operands are nil for kernels
// with fewer than three. A phantom tile fails it: keeping phantoms away
// from the kernels is the caller's job.
func checkShapes(kernel string, ok bool, t0, t1, t2 *tile.Tile) {
	if ok && holds(t0) && holds(t1) && holds(t2) {
		return
	}
	msg := "lapack." + kernel + ": operand shapes do not fit:"
	for _, t := range [...]*tile.Tile{t0, t1, t2} {
		if t != nil {
			msg += fmt.Sprintf(" %dx%d (len %d)", t.Rows, t.Cols, len(t.Data))
		}
	}
	panic(msg)
}

// holds reports whether t.Data has room for Rows×Cols elements; the full
// 128-bit product, so that a huge shape cannot wrap its way past the test.
func holds(t *tile.Tile) bool {
	if t == nil {
		return true
	}
	hi, lo := bits.Mul64(uint64(t.Rows), uint64(t.Cols))
	return t.Rows >= 0 && t.Cols >= 0 && hi == 0 && lo <= uint64(len(t.Data))
}

// ErrNotPositiveDefinite is returned by Potrf when a pivot is
// non-positive.
var ErrNotPositiveDefinite = errors.New("lapack: matrix not positive definite")

// Potrf factors the tile in place as A = L·Lᵀ, storing L in the lower
// triangle (the strict upper triangle is zeroed). Square tiles only.
// Each entry below the pivot is one serial subtract chain; four rows run
// interleaved, so four independent chains share every load of row j.
func Potrf(a *tile.Tile) error {
	n := a.Rows
	checkShapes("Potrf", a.Cols == n, a, nil, nil)
	for j := 0; j < n; j++ {
		aj := a.Data[j*n : j*n+j+1]
		d := aj[j]
		for _, v := range aj[:j] {
			d -= float64(v * v)
		}
		if d <= 0 {
			return ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		aj[j] = d
		i := j + 1
		for ; i+4 <= n; i += 4 {
			r0 := a.Data[i*n : i*n+j+1]
			r1 := a.Data[(i+1)*n : (i+1)*n+j+1]
			r2 := a.Data[(i+2)*n : (i+2)*n+j+1]
			r3 := a.Data[(i+3)*n : (i+3)*n+j+1]
			s0, s1, s2, s3 := r0[j], r1[j], r2[j], r3[j]
			for k, v := range aj[:j] {
				s0 -= float64(r0[k] * v)
				s1 -= float64(r1[k] * v)
				s2 -= float64(r2[k] * v)
				s3 -= float64(r3[k] * v)
			}
			r0[j], r1[j], r2[j], r3[j] = s0/d, s1/d, s2/d, s3/d
		}
		for ; i < n; i++ {
			ri := a.Data[i*n : i*n+j+1]
			s := ri[j]
			for k, v := range aj[:j] {
				s -= float64(ri[k] * v)
			}
			ri[j] = s / d
		}
		for i := 0; i < j; i++ {
			a.Data[i*n+j] = 0
		}
	}
	return nil
}

// Trsm solves X·Lᵀ = B for X in place (B ← B·L⁻ᵀ), the panel update of the
// tiled Cholesky: tile_mk = tile_mk · potrf(tile_kk)⁻ᵀ. Rows of B are
// independent, so four run interleaved as in Potrf.
func Trsm(l, b *tile.Tile) {
	n := l.Rows // L is n×n lower triangular; b is m×n
	m := b.Rows
	checkShapes("Trsm", l.Cols == n && b.Cols == n, l, b, nil)
	i := 0
	if useAVX2 && n > 0 && m >= panelRows {
		i = trsmPanels(l, b)
	}
	for ; i+4 <= m; i += 4 {
		b0 := b.Data[i*n : (i+1)*n]
		b1 := b.Data[(i+1)*n : (i+2)*n]
		b2 := b.Data[(i+2)*n : (i+3)*n]
		b3 := b.Data[(i+3)*n : (i+4)*n]
		for j := 0; j < n; j++ {
			lj := l.Data[j*n : j*n+j+1]
			s0, s1, s2, s3 := b0[j], b1[j], b2[j], b3[j]
			for k, v := range lj[:j] {
				s0 -= float64(b0[k] * v)
				s1 -= float64(b1[k] * v)
				s2 -= float64(b2[k] * v)
				s3 -= float64(b3[k] * v)
			}
			d := lj[j]
			b0[j], b1[j], b2[j], b3[j] = s0/d, s1/d, s2/d, s3/d
		}
	}
	for ; i < m; i++ {
		bi := b.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			lj := l.Data[j*n : j*n+j+1]
			s := bi[j]
			for k, v := range lj[:j] {
				s -= float64(bi[k] * v)
			}
			bi[j] = s / lj[j]
		}
	}
}

// panelRows is the height of trsmPanelAVX2's panel: sixteen rows of B,
// one per lane of its four accumulators.
const panelRows = 16

// trsmPanels solves B's whole 16-row blocks on trsmPanelAVX2 and returns
// how many rows it took. Each block is copied transposed into an n×16
// panel and back, which moves bits and computes nothing; the leftover
// rows are the caller's.
func trsmPanels(l, b *tile.Tile) int {
	n, m := l.Rows, b.Rows
	p := borrow(panelRows * n)
	i := 0
	for ; i+panelRows <= m; i += panelRows {
		rows := b.Data[i*n : (i+panelRows)*n]
		for r := 0; r < panelRows; r += 4 {
			r0, r1, r2, r3 := quad(rows, r, n)
			for k, v := range r0 {
				q := p[k*panelRows+r:][:4]
				q[0], q[1], q[2], q[3] = v, r1[k], r2[k], r3[k]
			}
		}
		trsmPanelAVX2(&p[0], &l.Data[0], n)
		for r := 0; r < panelRows; r += 4 {
			r0, r1, r2, r3 := quad(rows, r, n)
			for k := range r0 {
				q := p[k*panelRows+r:][:4]
				r0[k], r1[k], r2[k], r3[k] = q[0], q[1], q[2], q[3]
			}
		}
	}
	giveBack(p)
	return i
}

// quad returns rows r..r+3 of the row-major x with n columns, as slices of
// one length, so that indexing the last three by the first's index needs
// no bounds check.
func quad(x []float64, r, n int) (r0, r1, r2, r3 []float64) {
	r0 = x[r*n : (r+1)*n]
	return r0, x[(r+1)*n:][:len(r0)], x[(r+2)*n:][:len(r0)], x[(r+3)*n:][:len(r0)]
}

// scratch is the free list of the buffers the AVX2 path packs operands
// into (Trsm's panels, GemmNN's zero marks and padded copies). A call borrows one and
// gives it back before it returns, so once warm the kernels allocate
// nothing. Eight buffers cover the kernel calls of up to eight workers
// running at once; a call beyond them allocates, and its buffer is
// dropped when the list is full. A channel rather than
// a sync.Pool: the race detector makes a Pool drop a quarter of what it
// is given.
var scratch = make(chan []float64, 8)

// borrow returns a buffer of length n, from scratch when one there is
// long enough. Its contents are whatever its last user left.
func borrow(n int) []float64 {
	select {
	case s := <-scratch:
		if cap(s) >= n {
			return s[:n]
		}
	default:
	}
	return make([]float64, n)
}

// giveBack returns s to scratch, or drops it when scratch is full.
func giveBack(s []float64) {
	select {
	case scratch <- s:
	default:
	}
}

// Syrk updates C ← C − A·Aᵀ on the lower triangle (diagonal tile update):
// GemmNT with B = A, each row stopped at its diagonal.
func Syrk(c, a *tile.Tile) {
	n, k := c.Rows, a.Cols
	checkShapes("Syrk", c.Cols == n && a.Rows == n, c, a, nil)
	i := 0
	if useAVX2 && k > 0 {
		for ; i+2 <= n; i += 2 {
			// Rows i and i+1 share the 2×4 blocks left of column j0.
			j0 := (i + 1) &^ 3
			if j0 > 0 {
				dotBlocksAVX2(&c.Data[i*n], n, &a.Data[i*k], &a.Data[0], k, j0/4)
			}
			dotRow(c.Data[i*n:(i+1)*n], a.Data[i*k:(i+1)*k], a.Data, j0, i+1)
			dotRow(c.Data[(i+1)*n:(i+2)*n], a.Data[(i+1)*k:(i+2)*k], a.Data, j0, i+2)
		}
	}
	for ; i < n; i++ {
		dotRow(c.Data[i*n:(i+1)*n], a.Data[i*k:(i+1)*k], a.Data, 0, i+1)
	}
}

// GemmNT updates C ← C − A·Bᵀ (the trailing update of the tiled Cholesky).
// Both operands are traversed row-major (Bᵀ means rows of B are the
// columns we need), so each 4-wide dot product streams two contiguous rows.
func GemmNT(c, a, b *tile.Tile) {
	m, n, k := c.Rows, c.Cols, a.Cols
	checkShapes("GemmNT", a.Rows == m && b.Rows == n && b.Cols == k, c, a, b)
	i := 0
	if useAVX2 && n >= 4 && k > 0 {
		for ; i+2 <= m; i += 2 {
			dotBlocksAVX2(&c.Data[i*n], n, &a.Data[i*k], &b.Data[0], k, n/4)
			dotRow(c.Data[i*n:(i+1)*n], a.Data[i*k:(i+1)*k], b.Data, n&^3, n)
			dotRow(c.Data[(i+1)*n:(i+2)*n], a.Data[(i+1)*k:(i+2)*k], b.Data, n&^3, n)
		}
	}
	for ; i < m; i++ {
		dotRow(c.Data[i*n:(i+1)*n], a.Data[i*k:(i+1)*k], b.Data, 0, n)
	}
}

// dotRow updates one row of C: ci[j] -= ai·bⱼ for j0 ≤ j < j1, where bⱼ
// is row j of the row-major b. Hoisting the row slices lets the compiler
// drop the bounds checks inside dot4.
func dotRow(ci, ai, b []float64, j0, j1 int) {
	k := len(ai)
	for j := j0; j < j1; j++ {
		ci[j] -= dot4(ai, b[j*k:(j+1)*k])
	}
}

// dot4 is a four-chain unrolled dot product over equal-length slices, so
// the FP units overlap independent chains. dotBlocksAVX2 is its vector
// form: s0..s3 are the lanes of one register.
func dot4(x, y []float64) float64 {
	k := len(x)
	y = y[:k]
	var s0, s1, s2, s3 float64
	p := 0
	for ; p+4 <= k; p += 4 {
		s0 += float64(x[p] * y[p])
		s1 += float64(x[p+1] * y[p+1])
		s2 += float64(x[p+2] * y[p+2])
		s3 += float64(x[p+3] * y[p+3])
	}
	s := (s0 + s1) + (s2 + s3)
	for ; p < k; p++ {
		s += float64(x[p] * y[p])
	}
	return s
}

// GemmNN updates C ← C + A·B (the block-sparse multiply-add kernel), in
// i-p-j order with the C and B rows hoisted: the inner loop is an axpy
// over two contiguous rows. Zero A entries skip the whole row update
// (block-sparse tiles are mostly zero).
func GemmNN(c, a, b *tile.Tile) {
	m, n, k := c.Rows, c.Cols, a.Cols
	checkShapes("GemmNN", a.Rows == m && b.Rows == k && b.Cols == n, c, a, b)
	if useAVX2 && k > 0 && n > 0 {
		gemmNNAVX2(c, a, b)
		return
	}
	for i := 0; i < m; i++ {
		ci := c.Data[i*n : (i+1)*n]
		for p, av := range a.Data[i*k : (i+1)*k] {
			if av == 0 {
				continue
			}
			axpyRow(ci, b.Data[p*n:(p+1)*n], av)
		}
	}
}

// gemmNNAVX2 is GemmNN on mulAddAVX2 alone, one quad of rows at a time.
// Before a quad runs, its four A rows are scanned once into per-step zero
// marks, so that the kernel's inner loop tests an integer, not four
// floats. The kernel takes whole 4×8 blocks; everything else runs it on
// padded copies. B's n%8 edge columns are packed once per call into a k×8
// panel whose padding columns are zero, and each quad's edge block of C
// is copied to a 4×8 buffer and back. The m%4 leftover rows run as a quad
// on copies of their A and C rows, padded with zero A rows whose C rows
// are dropped. Lanes never mix, so the real lanes take the reference's
// products in its order; the padding lanes are computed and dropped.
func gemmNNAVX2(c, a, b *tile.Tile) {
	m, n, k := c.Rows, c.Cols, a.Cols
	// marks k | B's edge panel 8k | C's edge block 32 | padded A 4k | padded C 4n
	s := borrow(13*k + 4*n + 32)
	defer giveBack(s)
	q := quadNN{b: b.Data, k: k, n: n, marks: s[:k], bEdge: s[k : 9*k], cEdge: s[9*k : 9*k+32]}
	if n8 := n &^ 7; n8 < n {
		for p := 0; p < k; p++ {
			e := q.bEdge[8*p : 8*p+8]
			clear(e[copy(e, b.Data[p*n+n8:(p+1)*n]):])
		}
	}
	i := 0
	for ; i+4 <= m; i += 4 {
		q.run(c.Data[i*n:(i+4)*n], a.Data[i*k:(i+4)*k])
	}
	if i < m {
		aPad, cPad := s[9*k+32:13*k+32], s[13*k+32:]
		clear(aPad[copy(aPad, a.Data[i*k:]):])
		clear(cPad[copy(cPad, c.Data[i*n:]):])
		q.run(cPad, aPad)
		copy(c.Data[i*n:], cPad)
	}
}

// quadNN is what gemmNNAVX2's quads share: B, its packed edge columns,
// and the buffers for C's edge block and for the zero marks. marks[p]
// holds, as its bit pattern, the set of rows r whose a[r][p] is zero
// (bit r), all bits zero when there is none.
type quadNN struct {
	b, marks, bEdge, cEdge []float64
	k, n                   int
}

// run adds A·B into the four rows of c (stride n) from the four rows of a
// (stride k).
func (q *quadNN) run(c, a []float64) {
	k, n := q.k, q.n
	a0, a1, a2, a3 := quad(a, 0, k)
	for p, v := range a0 {
		q.marks[p] = math.Float64frombits(zeroBit(v, 0) | zeroBit(a1[p], 1) | zeroBit(a2[p], 2) | zeroBit(a3[p], 3))
	}
	n8 := n &^ 7
	if n8 > 0 {
		mulAddAVX2(&c[0], &a[0], &q.b[0], &q.marks[0], k, n)
	}
	if n8 == n {
		return
	}
	for r := 0; r < 4; r++ {
		e := q.cEdge[8*r : 8*r+8]
		clear(e[copy(e, c[r*n+n8:(r+1)*n]):])
	}
	mulAddAVX2(&q.cEdge[0], &a[0], &q.bEdge[0], &q.marks[0], k, 8)
	for r := 0; r < 4; r++ {
		copy(c[r*n+n8:(r+1)*n], q.cEdge[8*r:])
	}
}

// zeroBit is bit r when v is a zero of either sign, and no bit otherwise
// (NaN included), as GemmNN's av == 0 skip decides.
func zeroBit(v float64, r uint) uint64 {
	if v == 0 {
		return 1 << r
	}
	return 0
}

// Mul overwrites C with A·B. Each element is the sum, from +0.0 and in
// ascending p, of float64(a[i][p]·b[p][j]), and no term is skipped: unlike
// GemmNN, which adds into C and skips zero entries of A, a zero of A still
// turns an Inf of B into NaN, and a sum of −0 terms is +0. MRA's mode
// contractions are this product (their refinement test compares these
// exact sums). On the AVX2 path mulAVX2 takes the whole 4×8 blocks; the
// m%4 leftover rows and the n%8 edge columns run the Go loop.
func Mul(c, a, b *tile.Tile) {
	m, n, k := c.Rows, c.Cols, a.Cols
	checkShapes("Mul", a.Rows == m && b.Rows == k && b.Cols == n, c, a, b)
	m4, n8 := 0, 0
	if useAVX2 && k > 0 && m >= 4 && n >= 8 {
		m4, n8 = m&^3, n&^7
		mulAVX2(&c.Data[0], &a.Data[0], &b.Data[0], m4, k, n)
	}
	if n8 < n {
		mulRows(c.Data, a.Data, b.Data, k, n, 0, m4, n8)
	}
	mulRows(c.Data, a.Data, b.Data, k, n, m4, m, 0)
}

// mulRows is Mul's reference loop on rows i0 ≤ i < i1 from column j0 on:
// one running sum per element, stored once. mulAVX2 orders its operands
// as a plain build of this loop does, a[i][p] first in the product and
// the sum first in the add. That matters only where two NaNs of different
// payloads meet, x86 keeping the first one's, and Go lets the compiler
// commute either operation (a -race build does): there the payload of
// the result is unspecified, and every other bit is Mul's contract.
func mulRows(c, a, b []float64, k, n, i0, i1, j0 int) {
	for i := i0; i < i1; i++ {
		ai := a[i*k : (i+1)*k]
		for j := j0; j < n; j++ {
			s := 0.0
			for p, av := range ai {
				s += float64(av * b[p*n+j])
			}
			c[i*n+j] = s
		}
	}
}

// axpyRow is c[j] += av·b[j] over equal-length rows, 4-wide unrolled.
func axpyRow(c, b []float64, av float64) {
	n := len(c)
	b = b[:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		c[j] += float64(av * b[j])
		c[j+1] += float64(av * b[j+1])
		c[j+2] += float64(av * b[j+2])
		c[j+3] += float64(av * b[j+3])
	}
	for ; j < n; j++ {
		c[j] += float64(av * b[j])
	}
}

// Inf is the "no path" distance of the Floyd-Warshall kernels.
const Inf = math.MaxFloat64 / 4

// FWKernelA is the diagonal (self-dependent) min-plus update: the k loop
// must be outermost because C serves as A, B, and C at once.
func FWKernelA(c *tile.Tile) {
	n := c.Rows
	checkShapes("FWKernelA", c.Cols == n, c, nil, nil)
	for k := 0; k < n; k++ {
		ck := c.Data[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			ci := c.Data[i*n : (i+1)*n]
			cik := ci[k]
			if cik >= Inf {
				continue
			}
			minPlusRow(ci, ck, cik)
		}
	}
}

// FWKernelB updates a tile in the diagonal tile's row: C ← min(C, D⊗C)
// where D is the already-relaxed diagonal tile.
func FWKernelB(c, d *tile.Tile) {
	n, m := c.Rows, c.Cols
	checkShapes("FWKernelB", d.Rows == n && d.Cols == n, c, d, nil)
	for k := 0; k < n; k++ {
		ck := c.Data[k*m : (k+1)*m]
		for i := 0; i < n; i++ {
			dik := d.Data[i*n+k]
			if dik >= Inf {
				continue
			}
			minPlusRow(c.Data[i*m:(i+1)*m], ck, dik)
		}
	}
}

// FWKernelC updates a tile in the diagonal tile's column: C ← min(C, C⊗D).
func FWKernelC(c, d *tile.Tile) {
	n, m := c.Rows, c.Cols
	checkShapes("FWKernelC", d.Rows == m && d.Cols == m, c, d, nil)
	for k := 0; k < m; k++ {
		dk := d.Data[k*m : (k+1)*m]
		for i := 0; i < n; i++ {
			ci := c.Data[i*m : (i+1)*m]
			cik := ci[k]
			if cik >= Inf {
				continue
			}
			minPlusRow(ci, dk, cik)
		}
	}
}

// FWKernelD is the independent update C ← min(C, A⊗B) with A from the
// tile's row panel and B from its column panel. It has no self-dependence,
// so the i-k-j order with hoisted rows is legal (kernels A–C must keep k
// outermost).
func FWKernelD(c, a, b *tile.Tile) {
	m, n, kk := c.Rows, c.Cols, a.Cols
	checkShapes("FWKernelD", a.Rows == m && b.Rows == kk && b.Cols == n, c, a, b)
	n4 := 0 // columns the micro-kernel takes, k loop and no-path skip included
	if useAVX2 && kk > 0 {
		n4 = n &^ 3
	}
	for i := 0; i < m; i++ {
		ci := c.Data[i*n : (i+1)*n]
		ai := a.Data[i*kk : (i+1)*kk]
		if n4 > 0 {
			minPlusPanelAVX2(&ci[0], &ai[0], &b.Data[0], kk, n, Inf)
		}
		if n4 == n {
			continue
		}
		for k, aik := range ai {
			if aik >= Inf {
				continue
			}
			minPlusRow(ci[n4:], b.Data[k*n+n4:(k+1)*n], aik)
		}
	}
}

// minPlusRow relaxes one row through one intermediate vertex: c[j] ←
// min(c[j], s + b[j]), 4-wide unrolled. c and b have equal length and are
// either the same row (kernels A and B at i == k) or disjoint.
func minPlusRow(c, b []float64, s float64) {
	n := len(c)
	b = b[:n]
	j := 0
	if useAVX2 && n >= 4 {
		j = n &^ 3
		minPlusAVX2(&c[0], &b[0], s, j)
	}
	for ; j+4 <= n; j += 4 {
		if v := s + b[j]; v < c[j] {
			c[j] = v
		}
		if v := s + b[j+1]; v < c[j+1] {
			c[j+1] = v
		}
		if v := s + b[j+2]; v < c[j+2] {
			c[j+2] = v
		}
		if v := s + b[j+3]; v < c[j+3] {
			c[j+3] = v
		}
	}
	for ; j < n; j++ {
		if v := s + b[j]; v < c[j] {
			c[j] = v
		}
	}
}

// Flop counts for the virtual-time cost model.

// PotrfFlops returns the flop count of an n×n Cholesky factorization.
func PotrfFlops(n int) float64 { f := float64(n); return f * f * f / 3 }

// TrsmFlops returns the flop count of an m×n triangular solve.
func TrsmFlops(m, n int) float64 { return float64(m) * float64(n) * float64(n) }

// SyrkFlops returns the flop count of an n×n rank-k update.
func SyrkFlops(n, k int) float64 { return float64(n) * float64(n) * float64(k) }

// GemmFlops returns the flop count of an m×n×k matrix multiply-add.
func GemmFlops(m, n, k int) float64 { return 2 * float64(m) * float64(n) * float64(k) }

// MinPlusFlops returns the op count of an m×n×k min-plus tile update.
func MinPlusFlops(m, n, k int) float64 { return 2 * float64(m) * float64(n) * float64(k) }
