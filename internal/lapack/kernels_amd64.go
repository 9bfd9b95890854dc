package lapack

// The assembly in kernels_amd64.s. None of it checks a bound: n, k and
// nblk must describe memory the pointers really reach (checkShapes).

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() uint32

//go:noescape
func dotBlocksAVX2(c *float64, ldc int, a, b *float64, k, nblk int)

//go:noescape
func axpyPanelAVX2(c, a, b *float64, k, n int)

//go:noescape
func minPlusPanelAVX2(c, a, b *float64, k, n int, skip float64)

//go:noescape
func minPlusAVX2(c, b *float64, s float64, n int)

// detectAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmYmmState = 0x6
	if xgetbv0()&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}
