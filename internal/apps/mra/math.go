// Package mra implements the multiresolution analysis benchmark of §III-E:
// adaptive projection of d-dimensional Gaussians into an order-k
// multiwavelet basis, the fast wavelet transform (compress), its inverse
// (reconstruct), and norm computation, over adaptively refined 2^d-trees.
//
// This file is the numerical core. Scaling functions are the orthonormal
// Legendre polynomials on each dyadic box; the two-scale transform uses
// exact Gauss-Legendre quadrature for the filter matrices. Wavelet
// (difference) coefficients are represented in the redundant child basis —
// the residual of the children's coefficients after projection onto the
// parent space. Because the parent space is a subspace of the children
// space and all bases are orthonormal, this residual is the orthogonal
// complement that Alpert's multiwavelets span, so compression error
// estimates and the Parseval norm identity ‖f‖² = ‖s₀‖² + Σ‖d‖² are
// exactly those of the standard construction (see DESIGN.md).
//
// Every transform here is a chain of mode contractions of a k^d tensor
// (row-major, mode 0 slowest) with a k×k matrix, and each contraction is
// one dense product on lapack.Mul, over flat row-major matrices NewBasis
// builds once. Every output element is the sum, from +0.0 and in ascending
// j, of M[i][j]·t[j], which is Mul's order: the refinement test err > Tol
// compares exactly these numbers, so a different summation order would
// change which boxes refine, and with that the task count the benchmark
// checks. For the same reason every product is written float64(x*y),
// which forbids fusing it into the add that follows (arm64 would;
// DESIGN.md §18). Intermediates live in a workspace borrowed from the
// Basis for the duration of one call (task body or exported wrapper); a
// workspace never crosses an edge, so the only slices a task allocates
// are the coefficient blocks it sends.
package mra

import (
	"math"
	"sync"

	"repro/internal/lapack"
	"repro/internal/tile"
)

// mat is a flat row-major k×k matrix, element (i,j) at i*k+j, and its
// transpose: the strided modes multiply by M, the last mode by Mᵀ.
type mat struct{ m, t []float64 }

// Basis holds the order-k multiwavelet machinery for d dimensions.
type Basis struct {
	K, D int
	// nodes/weights: k-point Gauss-Legendre rule on [0,1].
	nodes, weights []float64
	// phiW(i,q) = w_q·φ_i(node_q). h[c] is the 1-D two-scale filter for
	// child c (s_parent = Σ_c H_c·s_child_c), hT[c] its transpose
	// (prolongation s_child_c = H_cᵀ·s_parent), so h[c] and hT[c] share
	// their two blocks.
	phiW  mat
	h, hT [2]mat
	// stride[m] = k^(d-1-m), the distance between mode-m neighbours.
	stride [3]int
	// scratch recycles workspaces between the calls that borrow one.
	scratch sync.Pool
}

// workspace is the scratch of one node computation: the ping-pong pair a
// contraction chain alternates between, one temporary tensor, and (for
// Project) the 2^d child blocks, all k^d long, plus the quadrature point
// and its multi-index.
type workspace struct {
	pp    [2][]float64
	tmp   []float64
	child [][]float64
	x     [3]float64
	idx   [3]int
}

// NewBasis builds the order-k basis in d dimensions (1 ≤ d ≤ 3, k ≥ 1).
func NewBasis(k, d int) *Basis {
	b := &Basis{K: k, D: d}
	b.nodes, b.weights = gaussLegendre01(k)
	for m, s := d-1, 1; m >= 0; m, s = m-1, s*k {
		b.stride[m] = s
	}
	kk := k * k
	mats := make([]float64, 6*kk+k)
	phiW, phiWT := mats[:kk], mats[5*kk:][:kk]
	for i := 0; i < k; i++ {
		for q := 0; q < k; q++ {
			phiW[i*k+q] = b.weights[q] * legendreScaling(i, b.nodes[q])
			phiWT[q*k+i] = phiW[i*k+q]
		}
	}
	b.phiW = mat{phiW, phiWT}
	fine := mats[6*kk:] // φ_i at the parent nodes mapped into child c
	for c := 0; c < 2; c++ {
		h, hT := mats[(1+2*c)*kk:][:kk], mats[(2+2*c)*kk:][:kk]
		for i := 0; i < k; i++ {
			for q := range fine {
				fine[q] = legendreScaling(i, (b.nodes[q]+float64(c))/2)
			}
			for j := 0; j < k; j++ {
				s := 0.0
				for q := 0; q < k; q++ {
					s += float64(phiW[j*k+q] * fine[q])
				}
				h[i*k+j] = s / math.Sqrt2
				hT[j*k+i] = s / math.Sqrt2
			}
		}
		b.h[c], b.hT[c] = mat{h, hT}, mat{hT, h}
	}
	b.scratch.New = func() any {
		n, nc := b.Coeffs(), b.Children()
		buf := make([]float64, (3+nc)*n)
		w := &workspace{pp: [2][]float64{buf[:n], buf[n : 2*n]}, tmp: buf[2*n : 3*n], child: make([][]float64, nc)}
		for c := range w.child {
			w.child[c] = buf[(3+c)*n : (4+c)*n]
		}
		return w
	}
	return b
}

// Coeffs returns the coefficient count per node, k^d.
func (b *Basis) Coeffs() int { return b.K * b.stride[0] }

// Children returns the child count per node, 2^d.
func (b *Basis) Children() int { return 1 << uint(b.D) }

// legendreScaling is the orthonormal Legendre scaling function on [0,1]:
// φ_i(t) = √(2i+1)·P_i(2t−1).
func legendreScaling(i int, t float64) float64 {
	return math.Sqrt(float64(2*i+1)) * legendreP(i, 2*t-1)
}

// legendreP evaluates the Legendre polynomial P_n by recurrence.
func legendreP(n int, x float64) float64 {
	if n == 0 {
		return 1
	}
	if n == 1 {
		return x
	}
	p0, p1 := 1.0, x
	for m := 2; m <= n; m++ {
		p0, p1 = p1, (float64(float64(2*m-1)*x*p1)-float64(float64(m-1)*p0))/float64(m)
	}
	return p1
}

// gaussLegendre01 computes the k-point Gauss-Legendre rule on [0,1] by
// Newton iteration on the Chebyshev initial guesses.
func gaussLegendre01(k int) (nodes, weights []float64) {
	nodes = make([]float64, k)
	weights = make([]float64, k)
	for i := 0; i < k; i++ {
		// Root of P_k on [-1,1].
		x := math.Cos(math.Pi * (float64(i) + 0.75) / (float64(k) + 0.5))
		for iter := 0; iter < 100; iter++ {
			p := legendreP(k, x)
			// Derivative via the standard identity.
			dp := float64(k) * (float64(x*legendreP(k, x)) - legendreP(k-1, x)) / (float64(x*x) - 1)
			dx := p / dp
			x -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		w := 2 / ((1 - float64(x*x)) * sq(legendreDeriv(k, x)))
		// Map to [0,1]; note the Cos guesses run right-to-left.
		nodes[k-1-i] = (x + 1) / 2
		weights[k-1-i] = w / 2
	}
	return nodes, weights
}

func legendreDeriv(k int, x float64) float64 {
	return float64(k) * (float64(x*legendreP(k, x)) - legendreP(k-1, x)) / (float64(x*x) - 1)
}

func sq(x float64) float64 { return x * x }

// Func is a scalar function on the unit cube [0,1]^d.
type Func func(x []float64) float64

// borrow takes a workspace for one call; hand it back with b.scratch.Put.
func (b *Basis) borrow() *workspace { return b.scratch.Get().(*workspace) }

// ProjectBox computes the scaling coefficients of f on box (n, l):
// s_i = ∫_box f·φ^box_i with the box-mapped orthonormal basis, via the
// k-point tensor Gauss-Legendre rule.
func (b *Basis) ProjectBox(f Func, n int, l []int) []float64 {
	w := b.borrow()
	defer b.scratch.Put(w)
	out := make([]float64, b.Coeffs())
	b.projectInto(w, out, f, n, l)
	return out
}

// projectInto is ProjectBox into a caller-supplied k^d slice.
func (b *Basis) projectInto(w *workspace, out []float64, f Func, n int, l []int) {
	k, d := b.K, b.D
	scale := math.Exp2(-float64(n))
	x, idx, vals := w.x[:d], w.idx[:d], w.tmp
	for q := range vals {
		decompose(q, k, d, idx)
		for m := 0; m < d; m++ {
			x[m] = (float64(l[m]) + b.nodes[idx[m]]) * scale
		}
		vals[q] = f(x)
	}
	// Contract each mode with phiW, then apply the volume factor 2^{-nd/2}.
	b.transform(w, out, vals, [2]mat{b.phiW, b.phiW}, 0)
	vol := math.Exp2(-float64(n) * float64(d) / 2)
	for i := range out {
		out[i] *= vol
	}
}

// decompose writes q's base-k digits into idx (mode-major order).
func decompose(q, k, d int, idx []int) {
	for m := d - 1; m >= 0; m-- {
		idx[m] = q % k
		q /= k
	}
}

// contractInto applies the k×k matrix M along mode m of the k^d tensor t:
// out[…i…] = Σ_j M[i][j]·t[…j…]. out and t must not overlap. Each mode is
// one dense product whose operands are contiguous as they lie: a strided
// mode is M·T for each k×stride block T, the last mode T·Mᵀ with t viewed
// as k^(d-1) rows of k. Either way every output is Mul's sum from +0.0
// in ascending j, the order the package comment requires.
func (b *Basis) contractInto(out, t []float64, M mat, m int) {
	k, stride := b.K, b.stride[m]
	if stride == 1 {
		rows := len(t) / k
		lapack.Mul(&tile.Tile{Rows: rows, Cols: k, Data: out},
			&tile.Tile{Rows: rows, Cols: k, Data: t}, &tile.Tile{Rows: k, Cols: k, Data: M.t})
		return
	}
	mm := &tile.Tile{Rows: k, Cols: k, Data: M.m}
	for base := 0; base < len(t); base += k * stride {
		lapack.Mul(&tile.Tile{Rows: k, Cols: stride, Data: out[base:][:k*stride]},
			mm, &tile.Tile{Rows: k, Cols: stride, Data: t[base:][:k*stride]})
	}
}

// transform contracts every mode of src and leaves the result in dst: mode
// m takes M[1] when child index c has bit d-1-m set, M[0] otherwise.
// Intermediates alternate between the workspace's ping-pong pair, which
// therefore may hold neither src nor dst.
func (b *Basis) transform(w *workspace, dst, src []float64, M [2]mat, c int) {
	for m := 0; m < b.D; m++ {
		out := w.pp[m&1]
		if m == b.D-1 {
			out = dst
		}
		b.contractInto(out, src, M[childBit(c, b.D-1-m)], m)
		src = out
	}
}

// childBit extracts bit m of child index c.
func childBit(c, m int) int { return (c >> uint(m)) & 1 }

// childOffsetDim extracts dimension m's dyadic offset of child index c;
// dimension 0 occupies the most significant bit, matching the tensors'
// mode-major order.
func childOffsetDim(c, m, d int) int { return (c >> uint(d-1-m)) & 1 }

// Filter computes the parent scaling coefficients from the 2^d children:
// s_p = Σ_c (H_{c₁}⊗…⊗H_{c_d})·s_c.
func (b *Basis) Filter(children [][]float64) []float64 {
	w := b.borrow()
	defer b.scratch.Put(w)
	out := make([]float64, b.Coeffs())
	b.filterInto(w, out, children)
	return out
}

// filterInto is Filter into a zeroed caller-supplied k^d slice.
func (b *Basis) filterInto(w *workspace, out []float64, children [][]float64) {
	for c, sc := range children {
		if sc == nil {
			continue
		}
		b.transform(w, w.tmp, sc, b.h, c)
		for i, v := range w.tmp {
			out[i] += v
		}
	}
}

// Prolong computes child c's exact coefficients of a function given by
// parent coefficients: s_c = (H_{c₁}⊗…)ᵀ·s_p.
func (b *Basis) Prolong(sp []float64, c int) []float64 {
	w := b.borrow()
	defer b.scratch.Put(w)
	out := make([]float64, b.Coeffs())
	b.transform(w, out, sp, b.hT, c)
	return out
}

// Residual computes the wavelet (difference) part: children minus the
// prolonged parent, concatenated child-major. Its L2 norm is the local
// approximation error of representing the children by the parent alone.
func (b *Basis) Residual(children [][]float64, sp []float64) []float64 {
	w := b.borrow()
	defer b.scratch.Put(w)
	out := make([]float64, b.Children()*b.Coeffs())
	b.residualInto(w, out, children, sp)
	return out
}

// residualInto returns Norm2 of Residual(children, sp), summed in that
// order, and also stores the residual in out unless out is nil.
func (b *Basis) residualInto(w *workspace, out []float64, children [][]float64, sp []float64) (norm2 float64) {
	for c, sc := range children {
		r := w.tmp
		if out != nil {
			r = out[c*len(sp):][:len(sp)]
		}
		b.transform(w, r, sp, b.hT, c)
		for i, p := range r {
			if sc != nil {
				r[i] = sc[i] - p
			} else {
				r[i] = -p
			}
			norm2 += float64(r[i] * r[i])
		}
	}
	return norm2
}

// projectNode is Project's computation on box (n, l): the parent
// coefficients sp filtered from the 2^d exactly projected children (which
// stay in w) and the squared norm of their residual against sp.
func (b *Basis) projectNode(w *workspace, f Func, n int, l []int) (sp []float64, err2 float64) {
	var cl [3]int
	for c, sc := range w.child {
		for m := 0; m < b.D; m++ {
			cl[m] = 2*l[m] + childOffsetDim(c, m, b.D)
		}
		b.projectInto(w, sc, f, n+1, cl[:b.D])
	}
	sp = make([]float64, b.Coeffs())
	b.filterInto(w, sp, w.child)
	return sp, b.residualInto(w, nil, w.child, sp)
}

// compressNode is Compress's computation: the parent coefficients and the
// wavelet block of one interior node, each written where it will be sent.
func (b *Basis) compressNode(w *workspace, children [][]float64) (sp, d []float64) {
	sp = make([]float64, b.Coeffs())
	b.filterInto(w, sp, children)
	d = make([]float64, len(children)*len(sp))
	b.residualInto(w, d, children, sp)
	return sp, d
}

// reconstructInto is Reconstruct's computation for child c, into sc: the
// prolonged parent plus the child's slice of the wavelet block d. An
// interior child's sc is the fresh block it is sent in; a leaf's only
// feeds the norm, never leaves the task, and is the workspace's tmp.
func (b *Basis) reconstructInto(w *workspace, sc, sp, d []float64, c int) {
	b.transform(w, sc, sp, b.hT, c)
	for i, v := range d[c*len(sp):][:len(sp)] {
		sc[i] += v
	}
}

// Norm2 returns Σ v².
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += float64(x * x)
	}
	return s
}

// Gaussian builds exp(−a·|x−c|²) on the unit cube.
func Gaussian(a float64, center []float64) Func {
	return func(x []float64) float64 {
		r2 := 0.0
		for m := range x {
			d := x[m] - center[m]
			r2 += float64(d * d)
		}
		return math.Exp(-a * r2)
	}
}

// GaussianNorm2 is the analytic ‖f‖² of a unit-cube-interior Gaussian:
// (π/2a)^{d/2}.
func GaussianNorm2(a float64, d int) float64 {
	return math.Pow(math.Pi/(2*a), float64(d)/2)
}
