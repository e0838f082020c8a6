package distill

import (
	"errors"
	"fmt"
)

// MoransI computes Moran's I spatial autocorrelation statistic over grid
// samples, with binary neighbour weights w_ij = 1 when the Euclidean
// distance between samples i and j is positive and at most maxDist.
//
// I ≈ +1 for a smooth surface (what systematic process variation looks
// like), ≈ 0 (strictly, −1/(n−1)) for spatially independent values (what a
// well-distilled residual must look like). The "distiller" experiment uses
// this to show the regression distiller actually removes the spatial
// structure that makes raw PUF bits fail NIST.
func MoransI(xs, ys []int, values []float64, maxDist float64) (float64, error) {
	n := len(values)
	if len(xs) != n || len(ys) != n {
		return 0, fmt.Errorf("distill: MoransI length mismatch: %d xs, %d ys, %d values", len(xs), len(ys), n)
	}
	if n < 3 {
		return 0, errors.New("distill: MoransI needs at least three samples")
	}
	if maxDist <= 0 {
		return 0, fmt.Errorf("distill: MoransI neighbour radius must be positive, got %g", maxDist)
	}
	var mean float64
	for _, v := range values {
		mean += v
	}
	mean /= float64(n)

	var num, wSum float64
	maxDistSq := maxDist * maxDist
	for i := 0; i < n; i++ {
		di := values[i] - mean
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			dx := float64(xs[i] - xs[j])
			dy := float64(ys[i] - ys[j])
			if d2 := dx*dx + dy*dy; d2 > maxDistSq {
				continue
			}
			num += di * (values[j] - mean)
			wSum++
		}
	}
	if wSum == 0 {
		return 0, errors.New("distill: MoransI found no neighbouring pairs within radius")
	}
	var denom float64
	for _, v := range values {
		d := v - mean
		denom += d * d
	}
	if denom == 0 {
		return 0, errors.New("distill: MoransI undefined for constant values")
	}
	return float64(n) / wSum * num / denom, nil
}

// ExpectedMoransINull returns E[I] under the null hypothesis of no spatial
// autocorrelation: −1/(n−1).
func ExpectedMoransINull(n int) float64 {
	if n < 2 {
		return 0
	}
	return -1 / float64(n-1)
}
