package cholesky

import (
	"math"

	"repro/ttg"
)

// Key boxes of the TTG variant. Its task IDs fill exact triangles known
// when the graph is built, so each kernel declares one (ttg.Options.Slots)
// and the runtime matches its tasks in dense join slots instead of a
// hashed table. POTRF's k is its own index; TRSM's and SYRK's (m, k) with
// k < m < nt number as C(m,2)+k; GEMM's (i, j, k) with k < j < i < nt as
// C(i,3)+C(j,2)+k. Every other key indexes to -1.

// box is one template's key box.
type box[K comparable] struct {
	slots int
	index func(K) int
	keyAt func(int) K
}

// on returns o with the box declared.
func (b box[K]) on(o ttg.Options[K]) ttg.Options[K] {
	o.Slots, o.Index, o.KeyAt = b.slots, b.index, b.keyAt
	return o
}

func potrfBox(nt int) box[ttg.Int1] {
	return box[ttg.Int1]{
		slots: nt,
		index: func(key ttg.Int1) int {
			if k := key[0]; 0 <= k && k < nt {
				return k
			}
			return -1
		},
		keyAt: func(s int) ttg.Int1 { return ttg.Int1{s} },
	}
}

// panelBox is TRSM's and SYRK's box.
func panelBox(nt int) box[ttg.Int2] {
	return box[ttg.Int2]{
		slots: binom(nt, 2),
		index: func(key ttg.Int2) int {
			if m, k := key[0], key[1]; 0 <= k && k < m && m < nt {
				return binom(m, 2) + k
			}
			return -1
		},
		keyAt: func(s int) ttg.Int2 {
			m := binomRoot(s, 2)
			return ttg.Int2{m, s - binom(m, 2)}
		},
	}
}

func gemmBox(nt int) box[ttg.Int3] {
	return box[ttg.Int3]{
		slots: binom(nt, 3),
		index: func(key ttg.Int3) int {
			if i, j, k := key[0], key[1], key[2]; 0 <= k && k < j && j < i && i < nt {
				return binom(i, 3) + binom(j, 2) + k
			}
			return -1
		},
		keyAt: func(s int) ttg.Int3 {
			i := binomRoot(s, 3)
			s -= binom(i, 3)
			j := binomRoot(s, 2)
			return ttg.Int3{i, j, s - binom(j, 2)}
		},
	}
}

// binom is C(x, r) for r = 2 or 3.
func binom(x, r int) int {
	if r == 2 {
		return x * (x - 1) / 2
	}
	return x * (x - 1) * (x - 2) / 6
}

// binomRoot returns the largest x with C(x, r) <= s, for r = 2 or 3: a
// floating-point estimate, corrected exactly.
func binomRoot(s, r int) int {
	fact := 2.0
	if r == 3 {
		fact = 6
	}
	x := int(math.Pow(float64(s)*fact, 1/float64(r)))
	for x > 0 && binom(x, r) > s {
		x--
	}
	for binom(x+1, r) <= s {
		x++
	}
	return x
}
