package lapack

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/sparse"
	"repro/internal/tile"
)

// The contract of kernels_amd64.s is bit identity with the Go loops, not a
// tolerance. These tests run every exported kernel twice in one process —
// once as the CPU selects, once with useAVX2 cleared — on the same input
// bits and compare every operand with math.Float64bits.

// guard is written around every operand; a micro-kernel that strays
// outside its tile changes it.
var guard = math.Float64frombits(0x7ff8dead0badbeef)

const guardLen = 8

// operand is a tile whose Data sits inside a guarded backing array at an
// element offset, so an odd offset gives the micro-kernels rows that are
// not 16- or 32-byte aligned.
type operand struct {
	t       *tile.Tile
	backing []float64
}

func newOperand(rows, cols, off int) operand {
	n := rows * cols
	backing := make([]float64, guardLen+off+n+guardLen)
	for i := range backing {
		backing[i] = guard
	}
	lo := guardLen + off
	return operand{&tile.Tile{Rows: rows, Cols: cols, Data: backing[lo : lo+n : lo+n]}, backing}
}

func (o operand) clone() operand {
	c := operand{backing: append([]float64(nil), o.backing...)}
	lo := len(o.backing) - guardLen - len(o.t.Data)
	c.t = &tile.Tile{Rows: o.t.Rows, Cols: o.t.Cols, Data: c.backing[lo : lo+len(o.t.Data) : lo+len(o.t.Data)]}
	return c
}

func cloneAll(ops []operand) []operand {
	c := make([]operand, len(ops))
	for i, o := range ops {
		c[i] = o.clone()
	}
	return c
}

// sameBits compares two operands' whole backing arrays, guards included.
func sameBits(a, b operand) (int, bool) {
	for i := range a.backing {
		if math.Float64bits(a.backing[i]) != math.Float64bits(b.backing[i]) {
			return i - (len(a.backing) - guardLen - len(a.t.Data)), false
		}
	}
	return 0, true
}

// kshape is one case: an m×n result with inner dimension k, operands
// placed at element offset off, special values sprinkled or not.
type kshape struct {
	m, n, k, off int
	sprinkle     bool
}

func (s kshape) bytes() []byte {
	sp := byte(0)
	if s.sprinkle {
		sp = 1
	}
	return []byte{byte(s.m), byte(s.n), byte(s.k), byte(s.off), sp}
}

func shapeFromBytes(b []byte) kshape {
	var v [5]int
	for i := range v {
		if i < len(b) {
			v[i] = int(b[i])
		}
	}
	return kshape{m: v[0], n: v[1], k: v[2], off: v[3] % 4, sprinkle: v[4]&1 == 1}
}

// fill writes normal deviates over a few magnitudes and, when sprinkling,
// the values the skip branches test for (0, −0, Inf and beyond).
func fill(o operand, rng *rand.Rand, s kshape, special []float64) {
	for i := range o.t.Data {
		v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		if s.sprinkle && len(special) > 0 && rng.Intn(3) == 0 {
			v = special[rng.Intn(len(special))]
		}
		o.t.Data[i] = v
	}
}

var (
	zeros    = []float64{0, math.Copysign(0, -1)}
	noPaths  = []float64{Inf, 2 * Inf, math.Inf(1), 0, math.Copysign(0, -1)}
	stickyCs = []float64{Inf, math.Inf(1), math.NaN(), 0, math.Copysign(0, -1)}
	// specials are what an exact product must carry through: zeros of
	// both signs (a run of them sums to +0 from +0.0), infinities (0·Inf is
	// NaN), NaN and a subnormal. The NaN is defaultNaN: where two NaNs meet
	// in Mul's sum, which payload survives is the compiler's choice in the
	// Go loop (it commutes that add differently under -race), so every NaN
	// the product sees is the one x86 makes of 0·Inf and Inf − Inf.
	specials   = []float64{0, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), defaultNaN, 5e-324}
	defaultNaN = math.Float64frombits(0xfff8000000000000)
)

// distances fills a min-plus operand with path lengths; c operands also
// get NaN, which `v < c` and VMINPD must both leave in place.
func distances(o operand, rng *rand.Rand, s kshape, special []float64) {
	for i := range o.t.Data {
		v := float64(rng.Float64()*20) - 2
		if s.sprinkle && rng.Intn(3) == 0 {
			v = special[rng.Intn(len(special))]
		}
		o.t.Data[i] = v
	}
}

// kernelCase builds one kernel's operands for a shape (the operand the
// kernel writes first) and runs the kernel on them.
type kernelCase struct {
	name  string
	build func(s kshape, rng *rand.Rand) []operand
	run   func(o []operand) error
}

var kernelCases = []kernelCase{
	{"GemmNT", func(s kshape, rng *rand.Rand) []operand {
		c, a, b := newOperand(s.m, s.n, s.off), newOperand(s.m, s.k, s.off), newOperand(s.n, s.k, s.off)
		fill(c, rng, s, nil)
		fill(a, rng, s, zeros)
		fill(b, rng, s, zeros)
		return []operand{c, a, b}
	}, func(o []operand) error { GemmNT(o[0].t, o[1].t, o[2].t); return nil }},
	{"Syrk", func(s kshape, rng *rand.Rand) []operand {
		c, a := newOperand(s.m, s.m, s.off), newOperand(s.m, s.k, s.off)
		fill(c, rng, s, nil)
		fill(a, rng, s, zeros)
		return []operand{c, a}
	}, func(o []operand) error { Syrk(o[0].t, o[1].t); return nil }},
	{"GemmNN", func(s kshape, rng *rand.Rand) []operand {
		c, a, b := newOperand(s.m, s.n, s.off), newOperand(s.m, s.k, s.off), newOperand(s.k, s.n, s.off)
		fill(c, rng, s, nil)
		fill(a, rng, s, zeros)
		fill(b, rng, s, zeros)
		if s.sprinkle && s.m > 0 && s.n > 0 && s.k > 0 {
			gemmNNSpecials(c.t, a.t, b.t, rng)
		}
		return []operand{c, a, b}
	}, func(o []operand) error { GemmNN(o[0].t, o[1].t, o[2].t); return nil }},
	{"Mul", func(s kshape, rng *rand.Rand) []operand {
		// C starts full of values, which a kernel that added into C instead
		// of overwriting it would keep; A's zeros meet B's Infs and NaNs,
		// which a zero skip would hide.
		c, a, b := newOperand(s.m, s.n, s.off), newOperand(s.m, s.k, s.off), newOperand(s.k, s.n, s.off)
		fill(c, rng, s, nil)
		fill(a, rng, s, specials)
		fill(b, rng, s, specials)
		return []operand{c, a, b}
	}, func(o []operand) error { Mul(o[0].t, o[1].t, o[2].t); return nil }},
	{"Potrf", func(s kshape, rng *rand.Rand) []operand {
		// Diagonally dominant, hence positive definite — unless sprinkled,
		// when one pivot is spoiled so that the error return and the
		// half-factored tile it leaves are compared too.
		a := newOperand(s.m, s.m, s.off)
		for i := range a.t.Data {
			a.t.Data[i] = float64(rng.Float64()) - 0.5
		}
		for i := 0; i < s.m; i++ {
			a.t.Data[i*s.m+i] += float64(s.m)
		}
		if s.sprinkle && s.m > 0 {
			i := rng.Intn(s.m)
			a.t.Data[i*s.m+i] = -1
		}
		return []operand{a}
	}, func(o []operand) error { return Potrf(o[0].t) }},
	{"Trsm", func(s kshape, rng *rand.Rand) []operand {
		b, l := newOperand(s.m, s.n, s.off), newOperand(s.n, s.n, s.off)
		fill(b, rng, s, zeros)
		fill(l, rng, s, zeros)
		for i := 0; i < s.n; i++ {
			l.t.Data[i*s.n+i] = 1 + float64(rng.Float64())
		}
		if s.sprinkle && s.n > 0 {
			// Inf and NaN in B and in the part of L the solve reads, and
			// one pivot of each sign of zero, so that both paths divide by
			// it. One of each, not a third: every column of X after a
			// special value in L is non-finite, so the columns before the
			// first one keep comparing finite arithmetic.
			for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
				if s.m > 0 {
					b.t.Data[rng.Intn(len(b.t.Data))] = v
				}
				if j := rng.Intn(s.n); j > 0 {
					l.t.Data[j*s.n+rng.Intn(j)] = v
				}
			}
			for _, z := range zeros {
				j := rng.Intn(s.n)
				l.t.Data[j*s.n+j] = z
			}
		}
		return []operand{b, l}
	}, func(o []operand) error { Trsm(o[1].t, o[0].t); return nil }},
	{"FWKernelA", func(s kshape, rng *rand.Rand) []operand {
		c := newOperand(s.m, s.m, s.off)
		distances(c, rng, s, stickyCs)
		return []operand{c}
	}, func(o []operand) error { FWKernelA(o[0].t); return nil }},
	{"FWKernelB", func(s kshape, rng *rand.Rand) []operand {
		c, d := newOperand(s.m, s.n, s.off), newOperand(s.m, s.m, s.off)
		distances(c, rng, s, stickyCs)
		distances(d, rng, s, noPaths)
		return []operand{c, d}
	}, func(o []operand) error { FWKernelB(o[0].t, o[1].t); return nil }},
	{"FWKernelC", func(s kshape, rng *rand.Rand) []operand {
		c, d := newOperand(s.m, s.n, s.off), newOperand(s.n, s.n, s.off)
		distances(c, rng, s, stickyCs)
		distances(d, rng, s, noPaths)
		return []operand{c, d}
	}, func(o []operand) error { FWKernelC(o[0].t, o[1].t); return nil }},
	{"FWKernelD", func(s kshape, rng *rand.Rand) []operand {
		c, a, b := newOperand(s.m, s.n, s.off), newOperand(s.m, s.k, s.off), newOperand(s.k, s.n, s.off)
		distances(c, rng, s, stickyCs)
		distances(a, rng, s, noPaths)
		distances(b, rng, s, noPaths)
		return []operand{c, a, b}
	}, func(o []operand) error { FWKernelD(o[0].t, o[1].t, o[2].t); return nil }},
}

// gemmNNSpecials plants what GemmNN's zero skip decides on where its
// micro-kernel treats steps and columns apart: the quad's per-step marks,
// the whole blocks, the packed edge columns and the padded leftover rows.
// Every NaN is defaultNaN, so where two meet in a sum it does not matter
// which one the sum keeps (see specials).
func gemmNNSpecials(c, a, b *tile.Tile, rng *rand.Rand) {
	m, n, k := c.Rows, c.Cols, a.Cols
	zero := func(i, p int) { a.Data[i*k+p] = zeros[rng.Intn(2)] }
	// NaN == 0 is false: a row with a NaN in A turns NaN on both paths.
	iz := rng.Intn(m) // the row of A that is all zeros
	for _, i := range []int{rng.Intn(m), m - 1} {
		if i != iz {
			a.Data[i*k+rng.Intn(k)] = defaultNaN
		}
	}
	// Zeros at the first and the last step, and one step at which a whole
	// quad (or every leftover row) is zero.
	zero(rng.Intn(m), 0)
	zero(rng.Intn(m), k-1)
	q, p := 4*rng.Intn((m+3)/4), rng.Intn(k)
	for i := q; i < min(q+4, m); i++ {
		zero(i, p)
	}
	// Every step skips the all-zero row, so its row of C keeps its bits,
	// −0 included: adding a +0 product would make it +0.
	for p := range k {
		zero(iz, p)
	}
	for j := 0; j < n; j += 2 {
		c.Data[iz*n+j] = math.Copysign(0, -1)
	}
	// ±Inf or NaN in B, in a whole-block column and in an edge column (or
	// twice in whichever kind there is), each facing a zero of A: taking
	// the skipped update would write 0·Inf = NaN into that row of C.
	for _, j := range []int{rng.Intn(max(n&^7, 1)), n - 1 - rng.Intn(max(n%8, 1))} {
		i, p := rng.Intn(m), rng.Intn(k)
		zero(i, p)
		b.Data[p*n+j] = []float64{math.Inf(1), math.Inf(-1), defaultNaN}[rng.Intn(3)]
	}
}

// withReference runs f on the Go reference loops alone.
func withReference(f func()) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	useAVX2 = false
	f()
}

// checkBitIdentical runs every kernel on shape s both ways and fails on
// the first differing bit, changed input or touched guard word.
func checkBitIdentical(t *testing.T, s kshape, seed int64) {
	t.Helper()
	for _, kc := range kernelCases {
		got := kc.build(s, rand.New(rand.NewSource(seed)))
		want := cloneAll(got)
		gotErr := kc.run(got)
		var wantErr error
		withReference(func() { wantErr = kc.run(want) })
		if gotErr != wantErr {
			t.Fatalf("%s %+v seed %d: %s path returned %v, reference %v", kc.name, s, seed, Impl(), gotErr, wantErr)
		}
		for i := range got {
			if at, ok := sameBits(got[i], want[i]); !ok {
				lo := len(got[i].backing) - guardLen - len(got[i].t.Data)
				t.Fatalf("%s %+v seed %d: operand %d differs from the reference at element %d of %dx%d (negative or past the end: a guard word): %#x, reference %#x",
					kc.name, s, seed, i, at, got[i].t.Rows, got[i].t.Cols,
					math.Float64bits(got[i].backing[lo+at]), math.Float64bits(want[i].backing[lo+at]))
			}
		}
	}
}

// corpus is the shape list of ISSUE 23: the bench shapes, every unroll
// and block tail, empty inner dimensions, the irregular bspmm panels,
// unaligned rows, and both skip branches. Kernels A and B meet their
// aliased row (i == k) in every case, and a tenth of the pivots there are
// negative, so the aliased update does change the row.
func corpus() []kshape {
	var cs []kshape
	for _, nb := range []int{16, 32, 128} {
		cs = append(cs, kshape{m: nb, n: nb, k: nb}, kshape{m: nb, n: nb, k: nb, off: 1, sprinkle: true})
	}
	for tail := 1; tail <= 3; tail++ {
		cs = append(cs,
			kshape{m: 7, n: 8 + tail, k: 12, off: tail},       // m odd, n%4 = tail
			kshape{m: 6, n: 12, k: 8 + tail, sprinkle: true},  // k%4 = tail
			kshape{m: 9, n: 4 + tail, k: tail, off: 3},        // k < 4
			kshape{m: 33, n: 20 + tail, k: 16 + tail, off: 1}, // everything at once
		)
	}
	cs = append(cs,
		kshape{m: 5, n: 9, k: 0},
		kshape{m: 0, n: 4, k: 4},
		kshape{m: 4, n: 0, k: 4},
		kshape{m: 1, n: 1, k: 1, sprinkle: true},
		kshape{m: 2, n: 4, k: 4, off: 1},
		kshape{m: 3, n: 3, k: 5, sprinkle: true},
		kshape{m: 150, n: 170, k: 160, off: 1, sprinkle: true},
		// One or two inner steps, so that a wrongly taken or wrongly
		// skipped update is not covered up by a later, smaller one.
		kshape{m: 40, n: 36, k: 1, off: 1, sprinkle: true},
		kshape{m: 40, n: 36, k: 2, sprinkle: true},
	)
	// Trsm's 16-row panel alone (m = 16) and followed by every kind of
	// leftover: one single row (17), three quads and three single rows
	// (31), the same after two panels (47); on n of one, three, five and
	// 21. GemmNN meets n = 1, 2 and 3, where a row has no whole vector and
	// its edge is all there is.
	for _, m := range []int{16, 17, 31, 47} {
		for _, n := range []int{1, 3, 5, 21} {
			cs = append(cs, kshape{m: m, n: n, k: 9, off: m % 4}, kshape{m: m, n: n, k: 9, off: n % 4, sprinkle: true})
		}
	}
	for n := 1; n <= 3; n++ {
		cs = append(cs, kshape{m: 6, n: n, k: 11, off: n, sprinkle: true})
	}
	// GemmNN's 4×8 blocks followed by every kind of leftover: m%4 rows
	// on a padded quad beside whole quads, n%8 edge columns beside whole
	// blocks or alone (n < 8), on one and two inner steps.
	for mr := 1; mr <= 3; mr++ {
		for nr := 0; nr < 8; nr++ {
			for k := 1; k <= 2; k++ {
				cs = append(cs, kshape{m: 4 + mr, n: 8 + nr, k: k, off: nr % 4, sprinkle: true})
				if nr > 0 {
					cs = append(cs, kshape{m: 4 + mr, n: nr, k: k, off: mr, sprinkle: true})
				}
			}
		}
	}
	// MRA's contractions of a k^3 tensor: a strided mode's k×k² and k×k
	// blocks, and the last mode's k²×k rows. k = 8 is mra_stream's, whose
	// blocks Mul's micro-kernel takes whole; k = 6 (Fig. 13) and k = 10
	// leave it leftover rows and edge columns, and at k = 6 the last mode
	// has no whole 8-column block at all.
	for _, k := range []int{6, 8, 10} {
		for i, s := range []kshape{{m: k, n: k * k, k: k}, {m: k, n: k, k: k}, {m: k * k, n: k, k: k}} {
			sp := s
			sp.off, sp.sprinkle = i+1, true
			cs = append(cs, s, sp)
		}
	}
	p := sparse.Generate(sparse.DefaultSpec(24)).Panels
	for i := 0; i+2 < len(p); i += 2 {
		cs = append(cs, kshape{m: p[i], n: p[i+1], k: p[i+2], off: i % 4, sprinkle: true})
	}
	return cs
}

func TestKernelsBitIdentical(t *testing.T) {
	if !useAVX2 {
		t.Skipf("kernel path %q: only the reference loops exist on this machine", Impl())
	}
	for i, s := range corpus() {
		checkBitIdentical(t, s, int64(i+1))
	}
}

func FuzzKernelsBitIdentical(f *testing.F) {
	for i, s := range corpus() {
		f.Add(s.bytes(), int64(i+1))
	}
	f.Fuzz(func(t *testing.T, shape []byte, seed int64) {
		if !useAVX2 {
			t.Skip("no micro-kernels on this machine")
		}
		checkBitIdentical(t, shapeFromBytes(shape), seed)
	})
}

// TestKernelsDoNotAllocate pins the reused scratch: once warm, the
// kernels that pack operands on the AVX2 path (on the reference path
// nothing is packed) allocate nothing. Mul packs nothing and must keep it
// so: MRA calls it on operands built on the caller's stack.
func TestKernelsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := func(rows, cols int) *tile.Tile {
		x := tile.New(rows, cols)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		return x
	}
	trsm := func(n int) func() {
		l, b := tile.New(n, n), random(n, n)
		for i := 0; i < n; i++ {
			l.Data[i*n+i] = 1 // so that repeated solves leave B as it is
		}
		return func() { Trsm(l, b) }
	}
	// GemmNN on bspmm's first panel triple, which has edge columns to
	// pack and leftover rows to pad.
	p := sparse.Generate(sparse.DefaultSpec(24)).Panels
	m, n, k := p[0], p[1], p[2]
	if n%8 == 0 || m%4 == 0 {
		t.Fatalf("sparse.DefaultSpec(24) panels %v: no edge columns or no leftover rows", p[:3])
	}
	c, a, b := random(m, n), random(m, k), random(k, n)
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"Trsm 128x128", trsm(128)},
		{"Trsm 16x16", trsm(16)},
		{fmt.Sprintf("GemmNN %dx%dx%d", m, n, k), func() { GemmNN(c, a, b) }},
		{fmt.Sprintf("Mul %dx%dx%d", m, n, k), func() { Mul(c, a, b) }},
	} {
		tc.run()
		if got := testing.AllocsPerRun(20, tc.run); got != 0 {
			t.Errorf("%s on the %s path: %v allocations per call, want 0", tc.name, Impl(), got)
		}
	}
}

// TestKernelsShareNoScratch runs the kernels that borrow scratch, and
// Mul, which has none to share, from four goroutines at once: a buffer
// lent to two calls at a time would mix their rows.
func TestKernelsShareNoScratch(t *testing.T) {
	s := kshape{m: 47, n: 21, k: 9, off: 1}
	var wg sync.WaitGroup
	for _, kc := range kernelCases {
		if kc.name != "Trsm" && kc.name != "GemmNN" && kc.name != "Mul" {
			continue
		}
		in := kc.build(s, rand.New(rand.NewSource(1)))
		want := cloneAll(in)
		kc.run(want)
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 50 {
					got := cloneAll(in)
					kc.run(got)
					for i := range got {
						if at, ok := sameBits(got[i], want[i]); !ok {
							t.Errorf("%s: operand %d differs at element %d when run concurrently", kc.name, i, at)
							return
						}
					}
				}
			}()
		}
	}
	wg.Wait()
}

// TestShapeMismatchPanics: every kernel refuses operands that do not fit
// each other or their own Data, on both paths, by a panic that names the
// kernel — and before it has written anything.
func TestShapeMismatchPanics(t *testing.T) {
	short := func(rows, cols int) *tile.Tile { // Data one element short of its shape
		return &tile.Tile{Rows: rows, Cols: cols, Data: make([]float64, rows*cols-1)}
	}
	type bad struct {
		kernel string
		why    string
		ts     []*tile.Tile // the written operand first
		run    func(ts []*tile.Tile)
	}
	gemmNT := func(ts []*tile.Tile) { GemmNT(ts[0], ts[1], ts[2]) }
	gemmNN := func(ts []*tile.Tile) { GemmNN(ts[0], ts[1], ts[2]) }
	mul := func(ts []*tile.Tile) { Mul(ts[0], ts[1], ts[2]) }
	fwD := func(ts []*tile.Tile) { FWKernelD(ts[0], ts[1], ts[2]) }
	syrk := func(ts []*tile.Tile) { Syrk(ts[0], ts[1]) }
	trsm := func(ts []*tile.Tile) { Trsm(ts[1], ts[0]) }
	fwB := func(ts []*tile.Tile) { FWKernelB(ts[0], ts[1]) }
	fwC := func(ts []*tile.Tile) { FWKernelC(ts[0], ts[1]) }
	potrf := func(ts []*tile.Tile) { _ = Potrf(ts[0]) }
	fwA := func(ts []*tile.Tile) { FWKernelA(ts[0]) }
	n := tile.New
	const huge = math.MaxInt/2 + 1
	cases := []bad{
		{"GemmNT", "b.Cols != a.Cols", []*tile.Tile{n(8, 8), n(8, 8), n(8, 4)}, gemmNT},
		{"GemmNT", "a.Rows != c.Rows", []*tile.Tile{n(8, 8), n(4, 8), n(8, 8)}, gemmNT},
		{"GemmNT", "b.Rows != c.Cols", []*tile.Tile{n(8, 8), n(8, 8), n(4, 8)}, gemmNT},
		{"GemmNT", "short b", []*tile.Tile{n(8, 8), n(8, 8), short(8, 8)}, gemmNT},
		{"GemmNT", "short c", []*tile.Tile{short(8, 8), n(8, 8), n(8, 8)}, gemmNT},
		{"GemmNT", "phantom a", []*tile.Tile{n(8, 8), tile.Phantom(8, 8), n(8, 8)}, gemmNT},
		{"GemmNT", "negative shape", []*tile.Tile{n(8, 8), {Rows: -8, Cols: -8, Data: make([]float64, 64)}, n(8, 8)}, gemmNT},
		{"GemmNT", "Rows*Cols overflows to 0", []*tile.Tile{{Rows: huge, Cols: 4, Data: make([]float64, 64)}, {Rows: huge, Cols: 8}, n(4, 8)}, gemmNT},
		{"Syrk", "c not square", []*tile.Tile{n(8, 12), n(8, 8)}, syrk},
		{"Syrk", "a.Rows != c.Rows", []*tile.Tile{n(8, 8), n(4, 8)}, syrk},
		{"Syrk", "short a", []*tile.Tile{n(8, 8), short(8, 8)}, syrk},
		{"GemmNN", "b.Rows != a.Cols", []*tile.Tile{n(8, 8), n(8, 8), n(4, 8)}, gemmNN},
		{"GemmNN", "b.Cols != c.Cols", []*tile.Tile{n(8, 8), n(8, 8), n(8, 4)}, gemmNN},
		{"GemmNN", "a.Rows != c.Rows", []*tile.Tile{n(8, 8), n(4, 8), n(8, 8)}, gemmNN},
		{"GemmNN", "short c", []*tile.Tile{short(8, 8), n(8, 8), n(8, 8)}, gemmNN},
		{"Mul", "b.Rows != a.Cols", []*tile.Tile{n(8, 8), n(8, 8), n(4, 8)}, mul},
		{"Mul", "a.Rows != c.Rows", []*tile.Tile{n(8, 8), n(4, 8), n(8, 8)}, mul},
		{"Mul", "short b", []*tile.Tile{n(8, 8), n(8, 8), short(8, 8)}, mul},
		{"Potrf", "not square", []*tile.Tile{n(8, 4)}, potrf},
		{"Potrf", "short", []*tile.Tile{short(8, 8)}, potrf},
		{"Trsm", "l not square", []*tile.Tile{n(8, 8), n(8, 4)}, trsm},
		{"Trsm", "b.Cols != l.Rows", []*tile.Tile{n(8, 4), n(8, 8)}, trsm},
		{"Trsm", "short l", []*tile.Tile{n(8, 8), short(8, 8)}, trsm},
		{"FWKernelA", "not square", []*tile.Tile{n(8, 4)}, fwA},
		{"FWKernelA", "short", []*tile.Tile{short(8, 8)}, fwA},
		{"FWKernelB", "d is not c.Rows square", []*tile.Tile{n(8, 12), n(12, 12)}, fwB},
		{"FWKernelB", "short d", []*tile.Tile{n(8, 12), short(8, 8)}, fwB},
		{"FWKernelC", "d is not c.Cols square", []*tile.Tile{n(8, 12), n(8, 8)}, fwC},
		{"FWKernelC", "short c", []*tile.Tile{short(8, 12), n(12, 12)}, fwC},
		{"FWKernelD", "b.Rows != a.Cols", []*tile.Tile{n(8, 8), n(8, 8), n(4, 8)}, fwD},
		{"FWKernelD", "b.Cols != c.Cols", []*tile.Tile{n(8, 8), n(8, 8), n(8, 4)}, fwD},
		{"FWKernelD", "a.Rows != c.Rows", []*tile.Tile{n(8, 8), n(4, 8), n(8, 8)}, fwD},
		{"FWKernelD", "short b", []*tile.Tile{n(8, 8), n(8, 8), short(8, 8)}, fwD},
	}
	refuses := func(c bad, path string) {
		for _, tl := range c.ts {
			for i := range tl.Data {
				tl.Data[i] = float64(i%5) + 1 // no zeros, no Inf: an unchecked kernel would write
			}
		}
		before := append([]float64(nil), c.ts[0].Data...)
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.HasPrefix(msg, "lapack."+c.kernel+": operand shapes do not fit: ") {
				t.Errorf("%s (%s, %s path): want the shape panic, got %q", c.kernel, c.why, path, msg)
			}
			for i, v := range c.ts[0].Data {
				if v != before[i] {
					t.Errorf("%s (%s, %s path): wrote element %d before refusing", c.kernel, c.why, path, i)
					return
				}
			}
		}()
		c.run(c.ts)
	}
	for _, c := range cases {
		refuses(c, Impl())
		withReference(func() { refuses(c, "reference") })
	}
}

func TestImplNamesThePath(t *testing.T) {
	if got := Impl(); got != "avx2" && got != "generic" {
		t.Fatalf("Impl() = %q", got)
	}
	withReference(func() {
		if Impl() != "generic" {
			t.Fatalf("Impl() = %q with the micro-kernels off", Impl())
		}
	})
}
