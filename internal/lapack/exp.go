package lapack

import (
	"fmt"
	"math"
)

// Exp sets dst[i] = e^src[i] for every i < len(src): the bits of exp, on
// every tier and every architecture. dst may be src itself but must not
// otherwise overlap it. With AVX-512F, expAVX512 takes the whole blocks
// of eight and exp the len(src)%8 tail.
func Exp(dst, src []float64) {
	if len(dst) < len(src) {
		panic(fmt.Sprintf("lapack.Exp: dst has %d elements, src %d", len(dst), len(src)))
	}
	n8 := 0
	if useAVX512 && len(src) >= 8 {
		n8 = len(src) &^ 7
		expAVX512(&dst[0], &src[0], n8/8)
	}
	for i := n8; i < len(src); i++ {
		dst[i] = exp(src[i])
	}
}

// ScaleOuterSum expands x[:n] k-fold in place, k = len(y), and scales
// it: x[p·k+i] = s·(x[p] + y[i]) for every p < n and i < k, the sum x[p]
// first and the product s first. It is the last mode of MRA's Gaussian
// grid, r² = (partial sum) + d², times −a, ready for Exp. The rows go
// from p = n−1 down, so that x[p] is read before a row written after it
// can cover it; x must hold n·k elements. With AVX-512F the whole pass
// runs on scaleOuterSumAVX512, with the same bits.
func ScaleOuterSum(x []float64, n int, y []float64, s float64) {
	k := len(y)
	if n < 0 || len(x) < n*k {
		panic(fmt.Sprintf("lapack.ScaleOuterSum: x has %d elements, %d rows of %d need %d", len(x), n, k, n*k))
	}
	if n == 0 || k == 0 {
		return
	}
	if useAVX512 {
		scaleOuterSumAVX512(&x[0], &y[0], n, k, s)
		return
	}
	for p := n - 1; p >= 0; p-- {
		xp := x[p]
		for i, v := range y {
			x[p*k+i] = s * (xp + v)
		}
	}
}

// exp is the standard library's pure-Go exp and expmulti
// ($GOROOT/src/math/exp.go, after FreeBSD's e_exp.c), with every product
// written float64(x*y). math.Exp is assembly on amd64 and arm64, and the
// amd64 one takes a fused path where the CPU has FMA, so its bits depend
// on the host; this port fuses nowhere, and math.Ldexp is pure Go on
// both and has no add to fuse into.
func exp(x float64) float64 {
	const (
		Ln2Hi = 6.93147180369123816490e-01
		Ln2Lo = 1.90821492927058770002e-10
		Log2e = 1.44269504088896338700e+00

		Overflow  = 7.09782712893383973096e+02
		Underflow = -7.45133219101941108420e+02
		NearZero  = 1.0 / (1 << 28) // 2**-28

		P1 = 1.66666666666666657415e-01  /* 0x3FC55555; 0x55555555 */
		P2 = -2.77777777770155933842e-03 /* 0xBF66C16C; 0x16BEBD93 */
		P3 = 6.61375632143793436117e-05  /* 0x3F11566A; 0xAF25DE2C */
		P4 = -1.65339022054652515390e-06 /* 0xBEBBBD41; 0xC5D26BF1 */
		P5 = 4.13813679705723846039e-08  /* 0x3E663769; 0x72BEA4D0 */
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > Overflow:
		return math.Inf(1)
	case x < Underflow:
		return 0
	case -NearZero < x && x < NearZero:
		return 1 + x
	}
	// Reduce x = k·ln2 + r, |r| ≤ ln2/2, with r = hi − lo.
	var k int
	switch {
	case x < 0:
		k = int(float64(Log2e*x) - 0.5)
	case x > 0:
		k = int(float64(Log2e*x) + 0.5)
	}
	hi := x - float64(float64(k)*Ln2Hi)
	lo := float64(float64(k) * Ln2Lo)
	r := hi - lo
	t := float64(r * r)
	c := r - float64(t*(P1+float64(t*(P2+float64(t*(P3+float64(t*(P4+float64(t*P5)))))))))
	y := 1 - ((lo - float64(r*c)/(2-c)) - hi)
	return math.Ldexp(y, k)
}
