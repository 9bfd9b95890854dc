package main

import "sort"

// quartiles returns the first quartile, median and third quartile of xs.
// For three or more values it is Python's statistics.quantiles(xs, n=4)
// (exclusive method: positions at (n+1)·q), so the spread printed here is
// the one the acceptance rule computes; smaller samples clamp to their
// ends, and an empty one gives zeros.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q*float64(n+1) - 1 // zero-based fractional index
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(n-1) {
			return s[n-1]
		}
		i := int(pos)
		frac := pos - float64(i)
		return s[i] + frac*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// iqrFrac is the inter-quartile range as a share of the median.
func iqrFrac(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / m
}
