package lapack

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/tile"
)

// The contract of kernels_amd64.s is bit identity with the Go loops, not a
// tolerance. These tests run every exported kernel on each tier the CPU
// has (avx512, then avx2 with useAVX512 cleared) and on the reference
// loops (both flags cleared), in one process, on the same input bits, and
// compare every operand with math.Float64bits.

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
		if s.sprinkle && s.m > 0 && s.n > 0 && s.k > 0 {
			dotSpecials(a.t, b.t, rng)
		}
		return []operand{c, a, b}
	}, func(o []operand) error { GemmNT(o[0].t, o[1].t, o[2].t); return nil }},
	{"Syrk", func(s kshape, rng *rand.Rand) []operand {
		c, a := newOperand(s.m, s.m, s.off), newOperand(s.m, s.k, s.off)
		fill(c, rng, s, nil)
		fill(a, rng, s, zeros)
		if s.sprinkle && s.m > 0 && s.k > 0 {
			dotSpecials(a.t, a.t, rng)
		}
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
		if s.sprinkle && s.m > 0 && s.n > 0 && s.k > 0 {
			fwDSpecials(a.t, b.t, rng)
		}
		return []operand{c, a, b}
	}, func(o []operand) error { FWKernelD(o[0].t, o[1].t, o[2].t); return nil }},
	{"Exp", func(s kshape, rng *rand.Rand) []operand {
		dst, src := newOperand(s.m, s.n, s.off), newOperand(s.m, s.n, s.off)
		fill(dst, rng, s, nil)
		expInputs(src, rng, s)
		return []operand{dst, src}
	}, func(o []operand) error { Exp(o[0].t.Data, o[1].t.Data); return nil }},
	{"Exp in place", func(s kshape, rng *rand.Rand) []operand {
		x := newOperand(s.m, s.n, s.off)
		expInputs(x, rng, s)
		return []operand{x}
	}, func(o []operand) error { Exp(o[0].t.Data, o[0].t.Data); return nil }},
	{"ScaleOuterSum", func(s kshape, rng *rand.Rand) []operand {
		// m partial sums of r² at the front of an m×n grid whose other
		// slots hold values the pass must overwrite, n squared distances,
		// and the factor −a, each sprinkled with gridSpecials.
		x, y, f := newOperand(s.m, s.n, s.off), newOperand(1, s.n, s.off), newOperand(1, 1, s.off)
		fill(x, rng, s, nil)
		special := func(v float64) float64 {
			if s.sprinkle && rng.Intn(3) == 0 {
				return gridSpecials[rng.Intn(len(gridSpecials))]
			}
			return v
		}
		for p := range min(s.m, len(x.t.Data)) {
			x.t.Data[p] = special(rng.Float64())
		}
		for i := range y.t.Data {
			y.t.Data[i] = special(rng.Float64() / 4)
		}
		f.t.Data[0] = special(-float64(rng.Intn(1e6)) / 1000)
		return []operand{x, y, f}
	}, func(o []operand) error {
		ScaleOuterSum(o[0].t.Data, o[0].t.Rows, o[1].t.Data, o[2].t.Data[0])
		return nil
	}},
}

// gridSpecials are what ScaleOuterSum's sums and products must carry
// through: the one NaN (where two meet, which the Go loop keeps is the
// compiler's choice, as in specials), both infinities, whose sum is that
// NaN and whose product with a zero is too, −0 and a subnormal.
var gridSpecials = []float64{defaultNaN, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324}

// expInputs fills an Exp operand, a third each: uniform over exp's finite
// range and past both thresholds, random bit patterns (NaNs, infinities
// and huge or subnormal magnitudes among them), and small values on both
// sides of the |x| < 2⁻²⁸ branch; when sprinkling, a third of all that is
// replaced by expSpecials.
func expInputs(o operand, rng *rand.Rand, s kshape) {
	specials := expSpecials()
	for i := range o.t.Data {
		var v float64
		switch rng.Intn(3) {
		case 0:
			v = float64(rng.Float64()*1600) - 800
		case 1:
			v = math.Float64frombits(rng.Uint64())
		default:
			v = math.Ldexp(rng.NormFloat64(), -20-rng.Intn(20))
		}
		if s.sprinkle && rng.Intn(3) == 0 {
			v = specials[rng.Intn(len(specials))]
		}
		o.t.Data[i] = v
	}
}

// exp's thresholds: above expOverflow it returns +Inf, below expUnderflow
// 0, and within ±expNearZero 1 + x.
const (
	expOverflow  = 7.09782712893383973096e+02
	expUnderflow = -7.45133219101941108420e+02
	expNearZero  = 1.0 / (1 << 28)
)

// expSpecials are the inputs at which exp changes branch or Ldexp case:
// ±0, ±Inf, NaNs of both signs, quiet and signalling (exp returns x
// itself, payload and all), the extremes; exp's overflow and underflow
// thresholds and ±2⁻²⁸ each ±1 ulp; a run of x in (−745.13, −708.4),
// whose results are subnormal; and the k boundaries, (j + ½)·ln2 ±1 ulp
// for every k exp reaches.
func expSpecials() []float64 {
	xs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), defaultNaN,
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff0000000000abc),
		math.Float64frombits(0xfff4000000000001), 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64}
	around := func(x float64) {
		xs = append(xs, math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1)))
	}
	for _, x := range []float64{expOverflow, expUnderflow, expNearZero, -expNearZero} {
		around(x)
	}
	for x := -745.13; x < -708.4; x += 0.0625 {
		xs = append(xs, x)
	}
	for j := -1076; j <= 1024; j++ {
		around(float64(float64(j)+0.5) * math.Ln2)
	}
	return xs
}

// checkExp compares Exp on tier tr with the reference on expSpecials: the
// whole list in one call, and every window of each length from 0 to 17
// (blocks of eight and the Go tail, alone and together) starting at each
// fifth element, into a guarded slice and in place.
func checkExp(t *testing.T, tr tier) {
	t.Helper()
	xs := expSpecials()
	for n := 0; n <= 18; n++ {
		step := 5
		if n == 18 {
			n, step = len(xs), 1
		}
		for start := 0; start+n <= len(xs); start += step {
			src := xs[start : start+n]
			for _, inPlace := range []bool{false, true} {
				got := newOperand(1, n, start%4)
				if inPlace {
					copy(got.t.Data, src)
				}
				want := got.clone()
				run := func(o operand) {
					if inPlace {
						Exp(o.t.Data, o.t.Data)
					} else {
						Exp(o.t.Data, src)
					}
				}
				tr.with(func() { run(got) })
				withReference(func() { run(want) })
				if at, ok := sameBits(got, want); !ok {
					lo := len(got.backing) - guardLen - n
					x := "a guard word"
					if at >= 0 && at < n {
						x = fmt.Sprintf("x = %#x", math.Float64bits(src[at]))
					}
					t.Fatalf("Exp on %s, %d elements from corpus element %d (in place %v): element %d (%s) is %#x, reference %#x",
						tr.name, n, start, inPlace, at, x, math.Float64bits(got.backing[lo+at]), math.Float64bits(want.backing[lo+at]))
				}
			}
		}
	}
}

// fwDSpecials plants what FWKernelD's no-path skip decides on, where its
// 4×32 block kernel makes the skip a per-row lane mask: in one quad of
// rows (or the leftover rows), a no-path a[i][p] beside rows that have a
// path at the same step p, facing −∞, −2·Inf and NaN in row p of B, once
// in a whole-block column and once in an edge column (or twice in
// whichever kind there is). Taking the skipped update would write
// Inf + (−2·Inf) = −Inf, a finite value, or Inf + (−∞) = −∞ into that
// row of C.
func fwDSpecials(a, b *tile.Tile, rng *rand.Rand) {
	m, n, k := a.Rows, b.Cols, a.Cols
	for _, j := range []int{rng.Intn(max(n&^31, 1)), n - 1 - rng.Intn(max(n%32, 1))} {
		q, p := 4*rng.Intn(max(m/4, 1)), rng.Intn(k)
		i := q + rng.Intn(min(4, m-q))
		for r := q; r < min(q+4, m); r++ {
			a.Data[r*k+p] = float64(rng.Float64()*20) - 2
		}
		a.Data[i*k+p] = []float64{Inf, 2 * Inf, math.Inf(1)}[rng.Intn(3)]
		b.Data[p*n+j] = []float64{math.Inf(-1), -2 * Inf, math.NaN()}[rng.Intn(3)]
	}
}

// dotSpecials plants what GemmNT's and Syrk's dot products must carry
// through where dotQuadAVX512 holds two rows of A in one register and
// broadcasts one row of B into both its halves: in one row of A, which
// shares its register with a row that stays finite, and in one row of B
// (for Syrk another row of A), two values each from NaN, ±Inf, −0 and a
// subnormal at random steps, vector steps and k%4 tail alike. Their
// products make that row's and that column's chains diverge from their
// neighbours', so a result moved to another row, column or half shows.
// Every NaN is defaultNaN, which is also what Inf − Inf makes: the Go
// loop may take either operand of a product or a sum first, so where two
// NaNs meet only one payload keeps the reference's bits defined.
func dotSpecials(a, b *tile.Tile, rng *rand.Rand) {
	k := a.Cols
	vals := []float64{defaultNaN, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324}
	for _, t := range []*tile.Tile{a, b} {
		i := rng.Intn(t.Rows)
		for range 2 {
			t.Data[i*k+rng.Intn(k)] = vals[rng.Intn(len(vals))]
		}
	}
}

// gemmNNSpecials plants what GemmNN's zero skip decides on where its
// micro-kernels treat steps and columns apart: the quad's per-step marks,
// the whole blocks, the 4×8 blocks and masked last block of the avx512
// tier, the packed edge columns of the avx2 tier and the padded leftover
// rows. Every NaN is defaultNaN, so where two meet in a sum it does not
// matter which one the sum keeps (see specials).
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
	// Zeros at the first and the last step, one in every row (each bit of
	// a step's mark set alone somewhere), and one step at which a whole
	// quad (or every leftover row) is zero.
	zero(rng.Intn(m), 0)
	zero(rng.Intn(m), k-1)
	for i := range m {
		zero(i, rng.Intn(k))
	}
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
	// ±Inf or NaN in B, each facing a zero of A, in a column of a whole
	// 4×32 block, one of the n%32 columns after them and one of the n%8
	// (the same kind more than once where a kind is missing): taking the
	// skipped update would write 0·Inf = NaN into that row of C.
	for _, j := range []int{rng.Intn(max(n&^31, 1)), min(n&^31+rng.Intn(max(n%32, 1)), n-1), n - 1 - rng.Intn(max(n%8, 1))} {
		i, p := rng.Intn(m), rng.Intn(k)
		zero(i, p)
		b.Data[p*n+j] = []float64{math.Inf(1), math.Inf(-1), defaultNaN}[rng.Intn(3)]
	}
	// Where the last block is narrower than the kernel's vectors, the lane
	// just past a row's last column is the first element of the next row
	// of B (after the last row, a guard word, also a NaN): a masked-off
	// lane that was loaded and kept would carry its NaN into C.
	if n%8 != 0 {
		for p := 1; p < k; p++ {
			b.Data[p*n] = defaultNaN
		}
	}
}

// withReference runs f on the Go reference loops alone.
func withReference(f func()) {
	defer func(v2, v512 bool) { useAVX2, useAVX512 = v2, v512 }(useAVX2, useAVX512)
	useAVX2, useAVX512 = false, false
	f()
}

// withAVX2 runs f on the AVX2 tier, every AVX-512F kernel off.
func withAVX2(f func()) {
	defer func(v bool) { useAVX512 = v }(useAVX512)
	useAVX512 = false
	f()
}

// tier is one kernel path the bit-identity tests compare with the
// reference: its Impl name, the CPU feature it needs, whether this CPU
// has it, and how to run f on it alone.
type tier struct {
	name, feature string
	has           bool
	with          func(f func())
}

var tiers = []tier{
	{"avx512", "AVX-512F", useAVX512, func(f func()) { f() }},
	{"avx2", "AVX2", useAVX2, withAVX2},
}

// checkBitIdentical runs every kernel on shape s on each tier the CPU has
// and on the reference, and fails on the first differing bit, changed
// input or touched guard word.
func checkBitIdentical(t *testing.T, s kshape, seed int64) {
	t.Helper()
	for _, tr := range tiers {
		if tr.has {
			checkTier(t, tr, s, seed)
		}
	}
}

// checkTier is checkBitIdentical on one tier.
func checkTier(t *testing.T, tr tier, s kshape, seed int64) {
	t.Helper()
	for _, kc := range kernelCases {
		got := kc.build(s, rand.New(rand.NewSource(seed)))
		want := cloneAll(got)
		var gotErr, wantErr error
		tr.with(func() { gotErr = kc.run(got) })
		withReference(func() { wantErr = kc.run(want) })
		if gotErr != wantErr {
			t.Fatalf("%s %+v seed %d: %s path returned %v, reference %v", kc.name, s, seed, tr.name, gotErr, wantErr)
		}
		for i := range got {
			if at, ok := sameBits(got[i], want[i]); !ok {
				lo := len(got[i].backing) - guardLen - len(got[i].t.Data)
				t.Fatalf("%s %+v seed %d: %s operand %d differs from the reference at element %d of %dx%d (negative or past the end: a guard word): %#x, reference %#x",
					kc.name, s, seed, tr.name, i, at, got[i].t.Rows, got[i].t.Cols,
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
	// GemmNN's 4×32 blocks on avx512, followed by 4×8 blocks and a last
	// block under a lane mask, or by that block alone (n < 8), on every
	// row count from a whole quad to a quad and three leftover rows, and
	// on one, three and seventeen inner steps: k%8 steps under the mask of
	// the kernel's zero-mark pass.
	for m := 4; m <= 8; m++ {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 40, 63, 64, 65} {
			for _, k := range []int{1, 3, 17} {
				cs = append(cs, kshape{m: m, n: n, k: k, off: (m + n + k) % 4, sprinkle: (m+n+k)%4 != 0})
			}
		}
	}
	// dotQuadAVX512's 4×8 blocks followed by every kind of leftover: the
	// m%4 rows, the n%8 edge columns (dotBlocksAVX2's 2×4 blocks and
	// dotRow's single columns), and dot4's k%4 tail, on rows at every
	// element offset. Syrk runs the m×m case of each.
	for mr := 1; mr <= 3; mr++ {
		for nr := 1; nr < 8; nr++ {
			for kr := 1; kr <= 3; kr++ {
				cs = append(cs, kshape{m: 8 + mr, n: 16 + nr, k: 8 + kr, off: 1 + (nr+kr)%3, sprinkle: (mr+nr+kr)%2 == 0})
			}
		}
	}
	// Syrk's diagonal band, the columns from (i&^3)&^7 to the diagonal,
	// starts at every quad of every order from 8 to 40, with and without
	// whole blocks left of it.
	for n := 8; n <= 40; n++ {
		cs = append(cs, kshape{m: n, n: 8, k: 4 + n%4, off: n % 4, sprinkle: n%2 == 1})
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
	// Mul's 8×8 blocks followed by every kind of leftover: the m%8 rows
	// (a quad for mulAVX2 and single rows, alone and together), the n%8
	// edge columns, on one inner step, k below and at the block and past
	// it. ScaleOuterSum meets every row count and k%8 tail of its own
	// here.
	for m := 4; m <= 15; m++ {
		for n := 8; n <= 17; n++ {
			for _, k := range []int{1, 6, 8, 10} {
				cs = append(cs, kshape{m: m, n: n, k: k, off: (m + n) % 4, sprinkle: (m+n+k)%2 == 1})
			}
		}
	}
	p := bspmmPanels
	for i := 0; i+2 < len(p); i += 2 {
		cs = append(cs, kshape{m: p[i], n: p[i+1], k: p[i+2], off: i % 4, sprinkle: true})
	}
	return cs
}

// TestKernelsBitIdentical compares each tier in its own subtest, which
// skips, naming the feature, on a CPU without it: a green run there
// covers only the tiers it did not skip.
func TestKernelsBitIdentical(t *testing.T) {
	for _, tr := range tiers {
		t.Run(tr.name, func(t *testing.T) {
			if !tr.has {
				t.Skipf("this CPU has no %s: the %s tier is not compared", tr.feature, tr.name)
			}
			for i, s := range corpus() {
				checkTier(t, tr, s, int64(i+1))
			}
			checkExp(t, tr)
		})
	}
}

func FuzzKernelsBitIdentical(f *testing.F) {
	for i, s := range corpus() {
		f.Add(s.bytes(), int64(i+1))
	}
	for _, tr := range tiers {
		if !tr.has {
			f.Logf("this CPU has no %s: the %s tier is not compared", tr.feature, tr.name)
		}
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
// nothing is packed) allocate nothing. Mul, FWKernelD, GemmNT, Syrk, Exp
// and ScaleOuterSum pack nothing and must keep it so: MRA calls Mul on
// operands built on the caller's stack and ScaleOuterSum and Exp on every
// box it projects, FWKernelD is
// most of fw_tcp's task bodies and GemmNT and Syrk most of the
// Cholesky's.
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
	fwD := func(m, n, k int) func() {
		c, a, b := random(m, n), random(m, k), random(k, n)
		return func() { FWKernelD(c, a, b) }
	}
	// GemmNN on bspmm's first panel triple, which has leftover rows to pad
	// and, on the avx2 tier, edge columns to pack.
	p := bspmmPanels
	m, n, k := p[0], p[1], p[2]
	if n%8 == 0 || m%4 == 0 {
		t.Fatalf("sparse.DefaultSpec(24) panels %v: no edge columns or no leftover rows", p[:3])
	}
	c, a, b := random(m, n), random(m, k), random(k, n)
	gemmNT := func(m, n, k int) func() {
		c, a, b := random(m, n), random(m, k), random(n, k)
		return func() { GemmNT(c, a, b) }
	}
	syrk := func(n, k int) func() {
		c, a := random(n, n), random(n, k)
		return func() { Syrk(c, a) }
	}
	exp := func(n int) func() {
		x := random(1, n).Data
		return func() { Exp(x, x) }
	}
	x, y := random(64, 8).Data, random(1, 8).Data
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"Trsm 128x128", trsm(128)},
		{"Trsm 16x16", trsm(16)},
		{fmt.Sprintf("GemmNN %dx%dx%d", m, n, k), func() { GemmNN(c, a, b) }},
		{fmt.Sprintf("Mul %dx%dx%d", m, n, k), func() { Mul(c, a, b) }},
		{"FWKernelD 32x32x32", fwD(32, 32, 32)},
		{"FWKernelD 38x45x32", fwD(38, 45, 32)},
		{"GemmNT 128x128x128", gemmNT(128, 128, 128)},
		{"GemmNT 38x45x14", gemmNT(38, 45, 14)},
		{"Syrk 128x128", syrk(128, 128)},
		{"Syrk 38x14", syrk(38, 14)},
		{"Exp 512", exp(512)},
		{"Exp 13", exp(13)},
		{"ScaleOuterSum 64x8", func() { ScaleOuterSum(x, 64, y, -1) }},
	} {
		tc.run()
		if got := testing.AllocsPerRun(20, tc.run); got != 0 {
			t.Errorf("%s on the %s path: %v allocations per call, want 0", tc.name, Impl(), got)
		}
	}
}

// TestDotKernelsNaNOperandOrder pins the one bit of GemmNT and Syrk that
// the Go reference leaves open: which payload a product of two NaNs
// keeps. dot4's float64(x*y) may be compiled either way round (a plain
// build multiplies y by x, keeping B's), so the bit-identity corpus has a
// single NaN. The micro-kernels write the product A operand first, and
// x86 keeps the first operand's NaN: where a NaN of A meets one of B, in
// a whole block, at a vector step or in the k%4 tail, C carries A's.
func TestDotKernelsNaNOperandOrder(t *testing.T) {
	nanA, nanB := math.Float64frombits(0x7ff80000000000a1), math.Float64frombits(0x7ff80000000000b2)
	const k = 6 // one vector step and a tail of two
	type meet struct{ i, j, p int }
	for _, tc := range []struct {
		name  string
		m, n  int
		meets []meet
		run   func(c, a, b *tile.Tile)
	}{
		{"GemmNT", 4, 8, []meet{{0, 0, 1}, {2, 5, 5}}, func(c, a, b *tile.Tile) { GemmNT(c, a, b) }},
		// B is A: row j of B is row j of A, which the block reaches from
		// row i ≥ 8.
		{"Syrk", 12, 12, []meet{{8, 0, 2}, {11, 6, 4}}, func(c, a, _ *tile.Tile) { Syrk(c, a) }},
	} {
		for _, tr := range tiers {
			if !tr.has {
				continue
			}
			rng := rand.New(rand.NewSource(1))
			c, a, b := randTile(tc.m, tc.n, rng), randTile(tc.m, k, rng), randTile(tc.n, k, rng)
			if tc.name == "Syrk" {
				b = a
			}
			for _, mt := range tc.meets {
				a.Data[mt.i*k+mt.p], b.Data[mt.j*k+mt.p] = nanA, nanB
			}
			tr.with(func() { tc.run(c, a, b) })
			for _, mt := range tc.meets {
				if got := math.Float64bits(c.At(mt.i, mt.j)); got != math.Float64bits(nanA) {
					t.Errorf("%s on %s: C[%d][%d] = %#x where A's NaN met B's at step %d, want A's %#x",
						tc.name, tr.name, mt.i, mt.j, got, mt.p, math.Float64bits(nanA))
				}
			}
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
	if got := Impl(); got != "avx512" && got != "avx2" && got != "generic" {
		t.Fatalf("Impl() = %q", got)
	}
	t.Logf("Impl() = %q", Impl())
	withAVX2(func() {
		if useAVX2 && Impl() != "avx2" {
			t.Fatalf("Impl() = %q with the AVX-512F kernel off", Impl())
		}
	})
	withReference(func() {
		if Impl() != "generic" {
			t.Fatalf("Impl() = %q with the micro-kernels off", Impl())
		}
	})
}
