package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/apps/cholesky"
	"repro/internal/apps/mra"
	"repro/internal/lapack"
	"repro/internal/tile"
	"repro/ttg"
)

// Result checks. Each costs O(n²) or less so that checking never dwarfs
// the run it checks (cholesky.Verify is O(n³) with a map lookup per
// element). A failed check fails the repetition.

// check verifies ‖L(Lᵀx) − Ax‖∞ ≤ 1e-8·n for a seeded random x: L·Lᵀ = A
// tested through two triangular products, never formed.
func (p *potrfInst) check(rng *rand.Rand) error {
	n, nb, nt := p.grid.N, p.grid.NB, p.grid.NT()
	if got, want := len(p.out.tiles), nt*(nt+1)/2; got != want {
		return fmt.Errorf("got %d factor tiles, want %d", got, want)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = 2*rng.Float64() - 1
	}
	// eachL visits every element of L's lower triangle, tile by tile.
	eachL := func(f func(r, c int, v float64)) {
		for key, t := range p.out.tiles {
			r0, c0 := key[0]*nb, key[1]*nb
			for i := 0; i < t.Rows; i++ {
				row := t.Data[i*t.Cols : (i+1)*t.Cols]
				for j, v := range row {
					if c0+j <= r0+i {
						f(r0+i, c0+j, v)
					}
				}
			}
		}
	}
	y := make([]float64, n) // Lᵀx
	eachL(func(r, c int, v float64) { y[c] += v * x[r] })
	z := make([]float64, n) // L(Lᵀx)
	eachL(func(r, c int, v float64) { z[r] += v * y[c] })
	// A is Toeplitz: Element(i, j) depends on |i−j| only.
	a := make([]float64, n)
	for d := range a {
		a[d] = cholesky.Element(d, 0)
	}
	worst := 0.0
	for i := 0; i < n; i++ {
		ax := 0.0
		for j := 0; j < n; j++ {
			d := i - j
			if d < 0 {
				d = -d
			}
			ax += a[d] * x[j]
		}
		if e := math.Abs(z[i] - ax); e > worst || math.IsNaN(e) {
			worst = e
		}
	}
	if !(worst <= 1e-8*float64(n)) {
		return fmt.Errorf("‖L(Lᵀx) − Ax‖∞ = %g, limit %g", worst, 1e-8*float64(n))
	}
	return nil
}

// check compares a seeded sample of 256 distances (16 sources x 16
// destinations) against a scalar dense Dijkstra on the same digraph.
func (f *fwInst) check(rng *rand.Rand) error {
	n, nb, nt := f.grid.N, f.grid.NB, f.grid.NT()
	if got, want := len(f.out.tiles), nt*nt; got != want {
		return fmt.Errorf("got %d distance tiles, want %d", got, want)
	}
	dist := make([]float64, n)
	done := make([]bool, n)
	for s := 0; s < 16; s++ {
		src := rng.Intn(n)
		for i := range dist {
			dist[i], done[i] = lapack.Inf, false
		}
		dist[src] = 0
		for {
			u, best := -1, lapack.Inf
			for i, d := range dist {
				if !done[i] && d < best {
					u, best = i, d
				}
			}
			if u < 0 {
				break
			}
			done[u] = true
			for v := 0; v < n; v++ {
				if w := f.weight(u, v); w < lapack.Inf && best+w < dist[v] {
					dist[v] = best + w
				}
			}
		}
		for d := 0; d < 16; d++ {
			dst := rng.Intn(n)
			got := f.out.tiles[[2]int{src / nb, dst / nb}].At(src%nb, dst%nb)
			want := dist[dst]
			if !(math.Abs(got-want) <= 1e-9*(1+math.Abs(want))) {
				return fmt.Errorf("dist(%d,%d) = %g, Dijkstra says %g", src, dst, got, want)
			}
		}
	}
	return nil
}

// check recomputes a seeded sample of C tiles as the direct product
// Σ_k A[i][k]·A[k][j] and compares element-wise.
func (b *bspmmInst) check(rng *rand.Rand) error {
	tasks := b.mat.MulTasks()
	if got, want := len(b.out.tiles), len(tasks); got != want {
		return fmt.Errorf("got %d product tiles, want %d", got, want)
	}
	nt := b.mat.NT()
	for sampled := 0; sampled < 3; {
		i, j := rng.Intn(nt), rng.Intn(nt)
		ks := tasks[ttg.Int2{i, j}]
		if len(ks) == 0 {
			continue
		}
		sampled++
		want := tile.New(b.mat.Dim(i), b.mat.Dim(j))
		for _, k := range ks {
			lapack.GemmNN(want, b.mat.Materialize(i, k, false), b.mat.Materialize(k, j, false))
		}
		got := b.out.tiles[[2]int{i, j}]
		if got == nil {
			return fmt.Errorf("product tile (%d,%d) missing", i, j)
		}
		if eps := 1e-10 * (1 + want.FrobeniusNorm()); !got.Equal(want, eps) {
			return fmt.Errorf("product tile (%d,%d) differs from the direct product by more than %g", i, j, eps)
		}
	}
	return nil
}

// check compares every function's computed norm with the analytic one.
func (m *mraInst) check(*rand.Rand) error {
	if got, want := len(m.norms), m.opts.NFuncs; got != want {
		return fmt.Errorf("got %d norms, want %d", got, want)
	}
	want := math.Sqrt(mra.GaussianNorm2(m.opts.Exponent, m.opts.D))
	for f, n := range m.norms {
		if rel := math.Abs(n-want) / want; !(rel <= 1e-5) {
			return fmt.Errorf("function %d: norm %v, analytic %v (relative error %g)", f, n, want, rel)
		}
	}
	return nil
}
