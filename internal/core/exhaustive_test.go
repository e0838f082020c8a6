package core

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"ropuf/internal/circuit"
	"ropuf/internal/rngx"
)

// ExhaustiveCase1 enumerates every non-empty stage subset and returns the
// one maximizing the absolute summed delta. Exponential; reference solver
// for tests (n ≲ 20).
func ExhaustiveCase1(alpha, beta []float64, opt Options) (Selection, error) {
	if len(alpha) != len(beta) {
		return Selection{}, fmt.Errorf("core: ExhaustiveCase1 length mismatch %d vs %d", len(alpha), len(beta))
	}
	n := len(alpha)
	if n == 0 || n > 24 {
		return Selection{}, fmt.Errorf("core: ExhaustiveCase1 supports 1..24 stages, got %d", n)
	}
	bestMargin := -1.0
	var bestMask uint32
	for mask := uint32(1); mask < 1<<uint(n); mask++ {
		if opt.RequireOddStages && bits.OnesCount32(mask)%2 == 0 {
			continue
		}
		var sum float64
		for i := 0; i < n; i++ {
			if mask>>uint(i)&1 == 1 {
				sum += alpha[i] - beta[i]
			}
		}
		if m := math.Abs(sum); m > bestMargin {
			bestMargin, bestMask = m, mask
		}
	}
	// A best margin of exactly 0 is only possible when every Δd is zero
	// (any nonzero Δd yields a positive-margin singleton, odd or not),
	// which SelectCase1 reports as ErrDegenerate — mirror that contract.
	if bestMargin <= 0 {
		return Selection{}, ErrDegenerate
	}
	cfg := circuit.NewConfig(n)
	for i := 0; i < n; i++ {
		cfg[i] = bestMask>>uint(i)&1 == 1
	}
	sel := Selection{X: cfg, Y: append(circuit.Config(nil), cfg...)}
	bit, margin, err := sel.Evaluate(alpha, beta)
	if err != nil {
		return Selection{}, err
	}
	sel.Bit, sel.Margin = bit, margin
	return sel, nil
}

// ExhaustiveCase2 enumerates every pair of equal-cardinality subsets and
// returns the best. O(4^n); reference solver for tests (n ≲ 10).
func ExhaustiveCase2(alpha, beta []float64, opt Options) (Selection, error) {
	if len(alpha) != len(beta) {
		return Selection{}, fmt.Errorf("core: ExhaustiveCase2 length mismatch %d vs %d", len(alpha), len(beta))
	}
	n := len(alpha)
	if n == 0 || n > 12 {
		return Selection{}, fmt.Errorf("core: ExhaustiveCase2 supports 1..12 stages, got %d", n)
	}
	bestMargin := -1.0
	var bestX, bestY uint32
	for mx := uint32(1); mx < 1<<uint(n); mx++ {
		cx := bits.OnesCount32(mx)
		if opt.RequireOddStages && cx%2 == 0 {
			continue
		}
		var top float64
		for i := 0; i < n; i++ {
			if mx>>uint(i)&1 == 1 {
				top += alpha[i]
			}
		}
		for my := uint32(1); my < 1<<uint(n); my++ {
			if bits.OnesCount32(my) != cx {
				continue
			}
			var bottom float64
			for i := 0; i < n; i++ {
				if my>>uint(i)&1 == 1 {
					bottom += beta[i]
				}
			}
			if m := math.Abs(top - bottom); m > bestMargin {
				bestMargin, bestX, bestY = m, mx, my
			}
		}
	}
	if bestMargin < 0 {
		return Selection{}, ErrDegenerate
	}
	x := circuit.NewConfig(n)
	y := circuit.NewConfig(n)
	for i := 0; i < n; i++ {
		x[i] = bestX>>uint(i)&1 == 1
		y[i] = bestY>>uint(i)&1 == 1
	}
	sel := Selection{X: x, Y: y}
	bit, margin, err := sel.Evaluate(alpha, beta)
	if err != nil {
		return Selection{}, err
	}
	sel.Bit, sel.Margin = bit, margin
	return sel, nil
}

func BenchmarkSelectCase1Exhaustive(b *testing.B) {
	alpha, beta := randVecs(rngx.New(15), 15, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ExhaustiveCase1(alpha, beta, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectCase2Exhaustive(b *testing.B) {
	alpha, beta := randVecs(rngx.New(10), 10, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ExhaustiveCase2(alpha, beta, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
