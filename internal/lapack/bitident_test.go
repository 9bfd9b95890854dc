package lapack

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
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
)

// distances fills a min-plus operand with path lengths; c operands also
// get NaN, which `v < c` and VMINPD must both leave in place.
func distances(o operand, rng *rand.Rand, s kshape, special []float64) {
	for i := range o.t.Data {
		v := rng.Float64()*20 - 2
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
		if s.sprinkle && len(a.t.Data) > 0 {
			// NaN == 0 is false: one row of C must turn NaN on both paths.
			a.t.Data[rng.Intn(len(a.t.Data))] = math.NaN()
		}
		return []operand{c, a, b}
	}, func(o []operand) error { GemmNN(o[0].t, o[1].t, o[2].t); return nil }},
	{"Potrf", func(s kshape, rng *rand.Rand) []operand {
		// Diagonally dominant, hence positive definite — unless sprinkled,
		// when one pivot is spoiled so that the error return and the
		// half-factored tile it leaves are compared too.
		a := newOperand(s.m, s.m, s.off)
		for i := range a.t.Data {
			a.t.Data[i] = rng.Float64() - 0.5
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
			l.t.Data[i*s.n+i] = 1 + rng.Float64()
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
		want := make([]operand, len(got))
		for i := range got {
			want[i] = got[i].clone()
		}
		gotErr := kc.run(got)
		var wantErr error
		withReference(func() { wantErr = kc.run(want) })
		if gotErr != wantErr {
			t.Fatalf("%s %+v seed %d: %s path returned %v, reference %v", kc.name, s, seed, Impl(), gotErr, wantErr)
		}
		for i := range got {
			if at, ok := sameBits(got[i], want[i]); !ok {
				t.Fatalf("%s %+v seed %d: operand %d differs from the reference at element %d of %dx%d (negative or past the end: a guard word)",
					kc.name, s, seed, i, at, got[i].t.Rows, got[i].t.Cols)
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
