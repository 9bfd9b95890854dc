//go:build !amd64

package lapack

// No micro-kernels on this architecture: useAVX2 and useAVX512 are
// false, so the stubs below are never reached and every kernel runs the
// loops in lapack.go.

func detect() (avx2, avx512 bool) { return false, false }

func dotBlocksAVX2(c *float64, ldc int, a, b *float64, k, nblk int)  { panic("lapack: no AVX2") }
func minPlusPanelAVX2(c, a, b *float64, k, n int, skip float64)      { panic("lapack: no AVX2") }
func minPlusAVX2(c, b *float64, s float64, n int)                    { panic("lapack: no AVX2") }
func trsmPanelAVX2(p, l *float64, n int)                             { panic("lapack: no AVX2") }
func mulAVX2(c, a, b *float64, m4, k, n int)                         { panic("lapack: no AVX2") }
func mulAddAVX2(c, a, b, mark *float64, k, n int)                    { panic("lapack: no AVX2") }
func minPlusBlockAVX512(c, a, b *float64, k, n int, skip float64)    { panic("lapack: no AVX-512") }
func dotQuadAVX512(c *float64, ldc int, a, b *float64, k, nquad int) { panic("lapack: no AVX-512") }
func expAVX512(dst, src *float64, nblk int)                          { panic("lapack: no AVX-512") }
func mulAVX512(c, a, b *float64, m8, k, n int)                       { panic("lapack: no AVX-512") }
func scaleOuterSumAVX512(x, y *float64, n, k int, s float64)         { panic("lapack: no AVX-512") }
func mulAddAVX512(c, a, b, mark *float64, k, n int)                  { panic("lapack: no AVX-512") }
