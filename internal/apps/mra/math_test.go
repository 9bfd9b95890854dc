package mra

import (
	"math"
	"testing"
)

func TestGaussLegendreExactness(t *testing.T) {
	// k-point GL on [0,1] integrates polynomials up to degree 2k-1.
	for _, k := range []int{2, 5, 10} {
		nodes, weights := gaussLegendre01(k)
		for deg := 0; deg < 2*k; deg++ {
			s := 0.0
			for q := 0; q < k; q++ {
				s += weights[q] * math.Pow(nodes[q], float64(deg))
			}
			want := 1 / float64(deg+1)
			if math.Abs(s-want) > 1e-12 {
				t.Fatalf("k=%d deg=%d: quad %v want %v", k, deg, s, want)
			}
		}
	}
}

func TestScalingFunctionsOrthonormal(t *testing.T) {
	const k = 10
	nodes, weights := gaussLegendre01(k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			s := 0.0
			for q := 0; q < k; q++ {
				s += weights[q] * legendreScaling(i, nodes[q]) * legendreScaling(j, nodes[q])
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(s-want) > 1e-10 {
				t.Fatalf("⟨φ%d,φ%d⟩ = %v", i, j, s)
			}
		}
	}
}

func TestProjectExactForPolynomials(t *testing.T) {
	// A degree < k polynomial is represented exactly: projecting on a box
	// and evaluating the norm over boxes reproduces ∫f².
	b := NewBasis(6, 2)
	f := func(x []float64) float64 { return 1 + 2*x[0] + 3*x[0]*x[1]*x[1] }
	// ∫ f² over [0,1]²: expand f² = 1 +4x +4x² +6xy² +12x²y² +9x²y⁴.
	want := 1.0 + 4.0/2 + 4.0/3 + 6.0/(2*3) + 12.0/(3*3) + 9.0/(3*5)
	s := b.ProjectBox(f, 0, []int{0, 0})
	if got := Norm2(s); math.Abs(got-want) > 1e-12 {
		t.Fatalf("‖s‖² = %v, want %v", got, want)
	}
}

func TestFilterRebuildsParentProjection(t *testing.T) {
	// Filtering children projections equals projecting on the parent for
	// a polynomial (both exact).
	b := NewBasis(5, 2)
	f := func(x []float64) float64 { return x[0]*x[0] + x[1] }
	children := make([][]float64, b.Children())
	for c := 0; c < b.Children(); c++ {
		l := []int{childOffsetDim(c, 0, 2), childOffsetDim(c, 1, 2)}
		children[c] = b.ProjectBox(f, 1, l)
	}
	sp := b.Filter(children)
	want := b.ProjectBox(f, 0, []int{0, 0})
	for i := range sp {
		if math.Abs(sp[i]-want[i]) > 1e-12 {
			t.Fatalf("coeff %d: filter %v direct %v", i, sp[i], want[i])
		}
	}
	// The residual of an exactly representable function vanishes.
	if r := Norm2(b.Residual(children, sp)); r > 1e-20 {
		t.Fatalf("residual norm² = %v for polynomial", r)
	}
}

func TestProlongFilterRoundTrip(t *testing.T) {
	// Prolonging a parent to children and filtering back is the identity
	// (the parent space embeds isometrically in the children space).
	b := NewBasis(4, 3)
	sp := make([]float64, b.Coeffs())
	for i := range sp {
		sp[i] = math.Sin(float64(i) + 1)
	}
	children := make([][]float64, b.Children())
	for c := range children {
		children[c] = b.Prolong(sp, c)
	}
	back := b.Filter(children)
	for i := range sp {
		if math.Abs(back[i]-sp[i]) > 1e-12 {
			t.Fatalf("coeff %d: round trip %v want %v", i, back[i], sp[i])
		}
	}
	// Isometry: Σ‖child‖² = ‖parent‖².
	sum := 0.0
	for _, c := range children {
		sum += Norm2(c)
	}
	if math.Abs(sum-Norm2(sp)) > 1e-12 {
		t.Fatalf("prolongation not isometric: %v vs %v", sum, Norm2(sp))
	}
}

// adaptiveNorm2 is a direct recursive reference of the adaptive projection.
func adaptiveNorm2(b *Basis, f Func, tol float64, n int, l []int, maxN int) float64 {
	children := make([][]float64, b.Children())
	for c := 0; c < b.Children(); c++ {
		cl := make([]int, b.D)
		for m := 0; m < b.D; m++ {
			cl[m] = 2*l[m] + childOffsetDim(c, m, b.D)
		}
		children[c] = b.ProjectBox(f, n+1, cl)
	}
	sp := b.Filter(children)
	if math.Sqrt(Norm2(b.Residual(children, sp))) <= tol || n >= maxN {
		return Norm2(sp)
	}
	total := 0.0
	for c := 0; c < b.Children(); c++ {
		cl := make([]int, b.D)
		for m := 0; m < b.D; m++ {
			cl[m] = 2*l[m] + childOffsetDim(c, m, b.D)
		}
		total += adaptiveNorm2(b, f, tol, n+1, cl, maxN)
	}
	return total
}

func TestAdaptiveProjectionGaussianNorm(t *testing.T) {
	// 2-D sharp Gaussian: the adaptive norm matches the analytic norm.
	b := NewBasis(8, 2)
	a := 500.0
	f := Gaussian(a, []float64{0.41, 0.57})
	got := adaptiveNorm2(b, f, 1e-8, 0, []int{0, 0}, 12)
	want := GaussianNorm2(a, 2)
	if rel := math.Abs(got-want) / want; rel > 1e-6 {
		t.Fatalf("adaptive norm² = %v, analytic %v (rel %g)", got, want, rel)
	}
}

// contract, contractT and the ref* functions below are the allocating
// implementation contractInto replaced, kept as the reference the kernel
// must match bit for bit (the refinement test, and so the task count,
// depends on these exact sums).

// contract applies matrix M (k×k, out[i] = Σ_j M[i][j]·in[j]) along mode m
// of the k^d tensor t, returning a new tensor.
func (b *Basis) contract(t []float64, M [][]float64, m int) []float64 {
	k, d := b.K, b.D
	out := make([]float64, len(t))
	// Stride of mode m in mode-major order: k^(d-1-m).
	stride := 1
	for i := 0; i < d-1-m; i++ {
		stride *= k
	}
	outer := len(t) / (k * stride)
	for o := 0; o < outer; o++ {
		base := o * k * stride
		for s := 0; s < stride; s++ {
			off := base + s
			for i := 0; i < k; i++ {
				acc := 0.0
				row := M[i]
				for j := 0; j < k; j++ {
					acc += row[j] * t[off+j*stride]
				}
				out[off+i*stride] = acc
			}
		}
	}
	return out
}

// contractT is contract with Mᵀ (out[j] = Σ_i M[i][j]·in[i]).
func (b *Basis) contractT(t []float64, M [][]float64, m int) []float64 {
	k := b.K
	mt := make([][]float64, k)
	for i := 0; i < k; i++ {
		mt[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			mt[i][j] = M[j][i]
		}
	}
	return b.contract(t, mt, m)
}

// rows views a flat row-major k×k matrix as the reference's [][]float64.
func rows(flat []float64, k int) [][]float64 {
	out := make([][]float64, k)
	for i := range out {
		out[i] = flat[i*k : (i+1)*k]
	}
	return out
}

func (b *Basis) refProjectBox(f Func, n int, l []int) []float64 {
	k, d := b.K, b.D
	vals := make([]float64, b.Coeffs())
	scale := math.Exp2(-float64(n))
	x := make([]float64, d)
	idx := make([]int, d)
	for q := range vals {
		decompose(q, k, d, idx)
		for m := 0; m < d; m++ {
			x[m] = (float64(l[m]) + b.nodes[idx[m]]) * scale
		}
		vals[q] = f(x)
	}
	s := vals
	for m := 0; m < d; m++ {
		s = b.contract(s, rows(b.phiW, k), m)
	}
	vol := math.Exp2(-float64(n) * float64(d) / 2)
	for i := range s {
		s[i] *= vol
	}
	return s
}

func (b *Basis) refFilter(children [][]float64) []float64 {
	out := make([]float64, b.Coeffs())
	for c, sc := range children {
		if sc == nil {
			continue
		}
		t := sc
		for m := 0; m < b.D; m++ {
			t = b.contract(t, rows(b.h[childBit(c, b.D-1-m)], b.K), m)
		}
		for i := range out {
			out[i] += t[i]
		}
	}
	return out
}

func (b *Basis) refProlong(sp []float64, c int) []float64 {
	t := sp
	for m := 0; m < b.D; m++ {
		t = b.contractT(t, rows(b.h[childBit(c, b.D-1-m)], b.K), m)
	}
	return t
}

func (b *Basis) refResidual(children [][]float64, sp []float64) []float64 {
	nc, ncf := b.Children(), b.Coeffs()
	out := make([]float64, nc*ncf)
	for c := 0; c < nc; c++ {
		p := b.refProlong(sp, c)
		off := c * ncf
		for i := 0; i < ncf; i++ {
			if children[c] != nil {
				out[off+i] = children[c][i] - p[i]
			} else {
				out[off+i] = -p[i]
			}
		}
	}
	return out
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %x (%v), reference %x (%v)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// testFunc has no symmetry the kernel could hide behind, and its sign
// changes produce cancelling sums (and exact zeros at k=1).
func testFunc(x []float64) float64 {
	v := 0.3
	for m, xm := range x {
		v += math.Sin(float64(7*m+3)*xm+0.1) - 0.2*xm*xm
	}
	return v
}

// TestKernelsBitIdentical pins the property the gain rests on: the
// unit-stride kernel and everything built on it return exactly the bits
// the allocating reference does. k covers both remainder loops (k mod 4 in
// {0,1,2,3}) and k below the blocking factor; d covers the stride-1 arm
// alone (d=1) and with one and two strided modes.
func TestKernelsBitIdentical(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 8, 10} {
		for d := 1; d <= 3; d++ {
			b := NewBasis(k, d)
			nc := b.Children()
			l := []int{1, 0, 1}[:d]
			children := make([][]float64, nc)
			for c := range children {
				cl := make([]int, d)
				for m := range cl {
					cl[m] = 2*l[m] + childOffsetDim(c, m, d)
				}
				children[c] = b.refProjectBox(testFunc, 2, cl)
				sameBits(t, "ProjectBox", b.ProjectBox(testFunc, 2, cl), children[c])
			}
			sp := b.refFilter(children)
			sameBits(t, "Filter", b.Filter(children), sp)
			sparse := append([][]float64(nil), children...)
			sparse[0], sparse[nc-1] = nil, nil
			sameBits(t, "Filter with nil children", b.Filter(sparse), b.refFilter(sparse))
			for c := 0; c < nc; c++ {
				sameBits(t, "Prolong", b.Prolong(sp, c), b.refProlong(sp, c))
			}
			sameBits(t, "Residual", b.Residual(children, sp), b.refResidual(children, sp))
			sameBits(t, "Residual with nil children", b.Residual(sparse, sp), b.refResidual(sparse, sp))

			// The fused Project node: sp and the residual norm it folds on
			// the fly instead of materialising the residual.
			w := b.borrow()
			gotSp, gotErr2 := b.projectNode(w, testFunc, 1, l)
			sameBits(t, "projectNode sp", gotSp, sp)
			sameBits(t, "projectNode residual norm", []float64{gotErr2}, []float64{Norm2(b.refResidual(children, sp))})
			// Compress and Reconstruct write where they send.
			cSp, cD := b.compressNode(w, children)
			sameBits(t, "compressNode sp", cSp, sp)
			sameBits(t, "compressNode D", cD, b.refResidual(children, sp))
			for c := 0; c < nc; c++ {
				want := b.refProlong(sp, c)
				for i := range want {
					want[i] += cD[c*len(sp)+i]
				}
				sc := make([]float64, len(sp))
				b.reconstructInto(w, sc, sp, cD, c)
				sameBits(t, "reconstructInto (interior child)", sc, want)
				// The leaf path computes the same block in the workspace,
				// so the norm it feeds sums the same bits in the same order.
				b.reconstructInto(w, w.tmp, sp, cD, c)
				sameBits(t, "reconstructInto (leaf child)", w.tmp, want)
				sameBits(t, "leaf norm", []float64{Norm2(w.tmp)}, []float64{Norm2(want)})
			}
			b.scratch.Put(w)
		}
	}
}

func TestContractionStridesAllModes(t *testing.T) {
	// Contracting with the identity leaves the tensor unchanged on every
	// mode in 3-D, in the reference and in the kernel.
	b := NewBasis(3, 3)
	id := []float64{1, 0, 0, 0, 1, 0, 0, 0, 1}
	tn := make([]float64, b.Coeffs())
	for i := range tn {
		tn[i] = float64(i)
	}
	for m := 0; m < 3; m++ {
		out := make([]float64, len(tn))
		b.contractInto(out, tn, id, m)
		sameBits(t, "kernel identity contraction", out, tn)
		sameBits(t, "reference identity contraction", b.contract(tn, rows(id, 3), m), tn)
	}
}

// TestTaskBodiesDoNotAllocateScratch pins the other property: on a warmed
// workspace a node computation allocates the coefficient blocks it sends
// and nothing else.
func TestTaskBodiesDoNotAllocateScratch(t *testing.T) {
	b := NewBasis(8, 3)
	f := Gaussian(600, []float64{0.41, 0.57, 0.33})
	l := []int{1, 2, 1}
	w := b.borrow()
	sp, _ := b.projectNode(w, f, 2, l)
	children := append([][]float64(nil), w.child...)
	_, d := b.compressNode(w, children)
	for _, tc := range []struct {
		name string
		want float64
		run  func()
	}{
		{"Project (sp)", 1, func() { b.projectNode(w, f, 2, l) }},
		{"Compress (sp, D)", 2, func() { b.compressNode(w, children) }},
		{"Reconstruct interior child (sc)", 1, func() { b.reconstructInto(w, make([]float64, len(sp)), sp, d, 5) }},
		{"Reconstruct leaf child (workspace)", 0, func() { b.reconstructInto(w, w.tmp, sp, d, 5) }},
	} {
		if got := testing.AllocsPerRun(20, tc.run); got != tc.want {
			t.Errorf("%s: %v allocations per run, want %v", tc.name, got, tc.want)
		}
	}
}

// BenchmarkProjectNode times the task body that is 1 352 of mra_stream's
// 1 864 tasks, at that workload's k and d.
func BenchmarkProjectNode(b *testing.B) {
	bs := NewBasis(8, 3)
	f := Gaussian(600, []float64{0.41, 0.57, 0.33})
	l := []int{1, 2, 1}
	w := bs.borrow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink, _ = bs.projectNode(w, f, 2, l)
	}
}

var sink []float64
