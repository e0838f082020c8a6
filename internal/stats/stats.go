// Package stats provides the descriptive statistics, the integer histogram
// and the special functions shared by the NIST test suite, the distiller
// and the PUF quality metrics.
//
// Everything here is implemented from scratch on top of the standard math
// package; the incomplete gamma functions follow the classical Numerical
// Recipes series/continued-fraction formulation, which is also what the
// reference NIST SP 800-22 C implementation uses (cephes igamc).
package stats

import "math"

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (divisor n-1).
// It returns 0 when fewer than two samples are given.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }
