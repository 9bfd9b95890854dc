package lapack

import (
	"fmt"
	"math"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/tile"
)

// TestGemmNNMaskedTailStaysInBounds runs GemmNN on the avx512 tier with A,
// B and C each ending exactly where a PROT_NONE page begins. The assembly
// checks no bound: mulAddAVX512 reaches the last columns of B and C, and
// the last steps of A in its zero-mark pass, only through lane masks, and
// a load or store of a masked-off lane past the last row would fault,
// which kills the test binary with SIGSEGV (a fault in assembly does not
// become a panic). The shapes have n%32 ≠ 0 (4×8 tail blocks, the last
// under a mask, and for n < 8 nothing else), whole quads only, so that C's
// last row is the kernel's and not a padded copy, and k%8 ≠ 0.
func TestGemmNNMaskedTailStaysInBounds(t *testing.T) {
	if !useAVX512 {
		t.Skip("this CPU has no AVX-512F: the avx512 tier is not run")
	}
	page := syscall.Getpagesize()
	// guarded returns a rows×cols tile whose last element is the last
	// word before a PROT_NONE page, and the mapping's release.
	guarded := func(rows, cols int) (*tile.Tile, func()) {
		n := rows * cols
		size := (8*n + page - 1) / page * page
		mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			t.Fatal(err)
		}
		if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
			t.Fatal(err)
		}
		data := unsafe.Slice((*float64)(unsafe.Pointer(&mem[size-8*n])), n)
		return &tile.Tile{Rows: rows, Cols: cols, Data: data}, func() { _ = syscall.Munmap(mem) }
	}
	for _, s := range [][3]int{{4, 1, 1}, {4, 3, 5}, {4, 7, 9}, {8, 9, 3}, {4, 33, 17}, {8, 63, 7}, {4, 198, 13}} {
		m, n, k := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, n, k), func(t *testing.T) {
			c, freeC := guarded(m, n)
			defer freeC()
			a, freeA := guarded(m, k)
			defer freeA()
			b, freeB := guarded(k, n)
			defer freeB()
			rng := rand.New(rand.NewSource(int64(m*n*k + 1)))
			for _, x := range []*tile.Tile{c, a, b} {
				for i := range x.Data {
					x.Data[i] = rng.NormFloat64()
				}
			}
			a.Data[len(a.Data)-1] = 0 // the last step of the last row is marked
			want := &tile.Tile{Rows: m, Cols: n, Data: append([]float64(nil), c.Data...)}
			withReference(func() { GemmNN(want, a, b) })
			GemmNN(c, a, b)
			for i, v := range c.Data {
				if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
					t.Fatalf("C[%d][%d] = %#x, reference %#x", i/n, i%n, math.Float64bits(v), math.Float64bits(want.Data[i]))
				}
			}
		})
	}
}
