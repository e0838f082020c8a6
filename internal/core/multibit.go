package core

import (
	"errors"
	"fmt"
)

// Multi-bit extraction: the paper generates exactly one bit per ring pair,
// but its framework allows more — after the margin-maximizing subset is
// consumed, the *remaining* stages can form a second, disjoint
// configuration pair yielding another bit, and so on. Disjointness keeps
// the bits' underlying delay sums statistically independent (each stage's
// variation feeds exactly one bit). Margins shrink with each round, so the
// extraction naturally terminates at a margin threshold — the same
// reliability/yield trade-off as §IV.E, now *within* one pair.

// SelectMulti extracts up to maxBits disjoint selections from one pair,
// stopping early when the next selection's margin falls below minMargin or
// when no usable stages remain. Selections are returned in extraction
// order (non-increasing margins for Case-1; approximately so for Case-2).
func SelectMulti(mode Mode, alpha, beta []float64, maxBits int, minMargin float64, opt Options) ([]Selection, error) {
	if len(alpha) != len(beta) {
		return nil, fmt.Errorf("core: SelectMulti length mismatch %d vs %d", len(alpha), len(beta))
	}
	if maxBits <= 0 {
		return nil, fmt.Errorf("core: SelectMulti needs maxBits > 0, got %d", maxBits)
	}
	if !(minMargin >= 0) {
		return nil, fmt.Errorf("core: SelectMulti margin threshold %g, want a non-negative number", minMargin)
	}
	n := len(alpha)
	if n == 0 {
		return nil, errors.New("core: SelectMulti with empty delay vectors")
	}

	// available[i] reports whether stage i of the top/bottom ring is still
	// unused. Case-1 consumes the same index on both rings; Case-2 consumes
	// x-selected indices on the top ring and y-selected on the bottom.
	availTop := make([]bool, n)
	availBottom := make([]bool, n)
	for i := range availTop {
		availTop[i] = true
		availBottom[i] = true
	}

	var out []Selection
	for len(out) < maxBits {
		// Build the index map of remaining stages. For Case-1 a stage must
		// be free on both rings; for Case-2 the two rings are tracked
		// separately but the sub-problem needs equal-length vectors, so we
		// use the free-on-both set there as well (a stage consumed on one
		// ring only cannot pair symmetrically anyway for Case-1, and for
		// Case-2 the equal-count constraint keeps consumption symmetric in
		// aggregate).
		var idxTop, idxBottom []int
		for i := 0; i < n; i++ {
			if availTop[i] {
				idxTop = append(idxTop, i)
			}
			if availBottom[i] {
				idxBottom = append(idxBottom, i)
			}
		}
		m := len(idxTop)
		if len(idxBottom) < m {
			m = len(idxBottom)
		}
		if m == 0 {
			break
		}
		subAlpha := make([]float64, m)
		subBeta := make([]float64, m)
		for k := 0; k < m; k++ {
			subAlpha[k] = alpha[idxTop[k]]
			subBeta[k] = beta[idxBottom[k]]
		}
		sel, err := Select(mode, subAlpha, subBeta, opt)
		if errors.Is(err, ErrDegenerate) {
			break
		}
		if err != nil {
			return nil, err
		}
		if sel.Margin < minMargin {
			break
		}
		// Map the sub-problem selection back to full-length vectors and
		// mark consumed stages.
		full := Selection{
			X:      make([]bool, n),
			Y:      make([]bool, n),
			Margin: sel.Margin,
			Bit:    sel.Bit,
		}
		for k := 0; k < m; k++ {
			if sel.X[k] {
				full.X[idxTop[k]] = true
				availTop[idxTop[k]] = false
			}
			if sel.Y[k] {
				full.Y[idxBottom[k]] = true
				availBottom[idxBottom[k]] = false
			}
		}
		out = append(out, full)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: SelectMulti extracted no bits above margin %g", minMargin)
	}
	return out, nil
}
