package cholesky

import "testing"

// TestKeyBoxes checks the three key boxes for every nt up to 24: KeyAt
// inverts Index over the whole box, every task ID of the factorization
// indexes into it, and every other key indexes to -1.
func TestKeyBoxes(t *testing.T) {
	for nt := 1; nt <= 24; nt++ {
		potrf, panel, gemm := potrfBox(nt), panelBox(nt), gemmBox(nt)
		if potrf.slots != nt || panel.slots != nt*(nt-1)/2 || gemm.slots != nt*(nt-1)*(nt-2)/6 {
			t.Fatalf("nt=%d: slots %d %d %d", nt, potrf.slots, panel.slots, gemm.slots)
		}
		for s := 0; s < potrf.slots; s++ {
			if got := potrf.index(potrf.keyAt(s)); got != s {
				t.Fatalf("nt=%d: POTRF Index(KeyAt(%d)) = %d", nt, s, got)
			}
		}
		for s := 0; s < panel.slots; s++ {
			if got := panel.index(panel.keyAt(s)); got != s {
				t.Fatalf("nt=%d: panel Index(KeyAt(%d)) = %d (key %v)", nt, s, got, panel.keyAt(s))
			}
		}
		for s := 0; s < gemm.slots; s++ {
			if got := gemm.index(gemm.keyAt(s)); got != s {
				t.Fatalf("nt=%d: GEMM Index(KeyAt(%d)) = %d (key %v)", nt, s, got, gemm.keyAt(s))
			}
		}
		// Every coordinate in [-2, nt+2): the factorization's keys map
		// into the box, all others to -1.
		inRange := func(s, slots int) bool { return 0 <= s && s < slots }
		for a := -2; a < nt+2; a++ {
			want := 0 <= a && a < nt
			if s := potrf.index([1]int{a}); inRange(s, potrf.slots) != want || (!want && s != -1) {
				t.Fatalf("nt=%d: POTRF Index(%d) = %d", nt, a, s)
			}
			for b := -2; b < nt+2; b++ {
				want := 0 <= b && b < a && a < nt
				if s := panel.index([2]int{a, b}); inRange(s, panel.slots) != want || (!want && s != -1) {
					t.Fatalf("nt=%d: panel Index(%d,%d) = %d", nt, a, b, s)
				}
				for c := -2; c < nt+2; c++ {
					want := 0 <= c && c < b && b < a && a < nt
					if s := gemm.index([3]int{a, b, c}); inRange(s, gemm.slots) != want || (!want && s != -1) {
						t.Fatalf("nt=%d: GEMM Index(%d,%d,%d) = %d", nt, a, b, c, s)
					}
				}
			}
		}
	}
}
