//go:build !amd64

package lapack

// No micro-kernels on this architecture: useAVX2 is false, so the stubs
// below are never reached and every kernel runs the loops in lapack.go.

func detectAVX2() bool { return false }

func dotBlocksAVX2(c *float64, ldc int, a, b *float64, k, nblk int) { panic("lapack: no AVX2") }
func axpyPanelAVX2(c, a, b *float64, k, n int)                      { panic("lapack: no AVX2") }
func minPlusPanelAVX2(c, a, b *float64, k, n int, skip float64)     { panic("lapack: no AVX2") }
func minPlusAVX2(c, b *float64, s float64, n int)                   { panic("lapack: no AVX2") }
