package lapack

// The assembly in kernels_amd64.s. None of it checks a bound: n, k and
// nblk must describe memory the pointers really reach (checkShapes).

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() uint32

//go:noescape
func dotBlocksAVX2(c *float64, ldc int, a, b *float64, k, nblk int)

//go:noescape
func minPlusPanelAVX2(c, a, b *float64, k, n int, skip float64)

//go:noescape
func minPlusAVX2(c, b *float64, s float64, n int)

//go:noescape
func trsmPanelAVX2(p, l *float64, n int)

//go:noescape
func mulAVX2(c, a, b *float64, m4, k, n int)

//go:noescape
func mulAddAVX2(c, a, b, mark *float64, k, n int)

//go:noescape
func minPlusBlockAVX512(c, a, b *float64, k, n int, skip float64)

//go:noescape
func dotQuadAVX512(c *float64, ldc int, a, b *float64, k, nquad int)

//go:noescape
func expAVX512(dst, src *float64, nblk int)

//go:noescape
func mulAVX512(c, a, b *float64, m8, k, n int)

//go:noescape
func scaleOuterSumAVX512(x, y *float64, n, k int, s float64)

//go:noescape
func mulAddAVX512(c, a, b, mark *float64, k, n int)

// detect reports which micro-kernel tiers the CPU has and the OS
// supports. avx2: the CPU has AVX2 and the OS saves the YMM registers
// across context switches, XCR0 bits 1–2. avx512: AVX2, and the CPU has
// AVX-512F and the OS also saves the opmask and all 32 ZMM registers,
// XCR0 bits 5–7 (XCR0 & 0xE6 == 0xE6).
func detect() (avx2, avx512 bool) {
	const osxsave, avx = 1 << 27, 1 << 28
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, c, _ := cpuid(1, 0)
	if maxLeaf < 7 || c&(osxsave|avx) != osxsave|avx {
		return false, false
	}
	const avx2Bit, avx512fBit = 1 << 5, 1 << 16
	const ymmState, zmmState = 0x6, 0xe6
	_, b, _, _ := cpuid(7, 0)
	xcr0 := xgetbv0()
	if b&avx2Bit == 0 || xcr0&ymmState != ymmState {
		return false, false
	}
	return true, b&avx512fBit != 0 && xcr0&zmmState == zmmState
}
