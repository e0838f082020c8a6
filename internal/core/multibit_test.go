package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ropuf/internal/rngx"
)

func multiVecs(seed uint64, n int) (alpha, beta []float64) {
	r := rngx.New(seed)
	alpha = make([]float64, n)
	beta = make([]float64, n)
	for i := 0; i < n; i++ {
		alpha[i] = 200 + 4*r.Norm()
		beta[i] = 200 + 4*r.Norm()
	}
	return
}

func TestSelectMultiFirstBitMatchesSingle(t *testing.T) {
	alpha, beta := multiVecs(1, 13)
	for _, mode := range []Mode{Case1, Case2} {
		multi, err := SelectMulti(mode, alpha, beta, 4, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		single, err := Select(mode, alpha, beta, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if multi[0].Margin != single.Margin || multi[0].Bit != single.Bit {
			t.Fatalf("%v: first multi bit (m=%.2f b=%v) differs from single (m=%.2f b=%v)",
				mode, multi[0].Margin, multi[0].Bit, single.Margin, single.Bit)
		}
	}
}

func TestSelectMultiDisjointStages(t *testing.T) {
	check := func(seed uint64) bool {
		alpha, beta := multiVecs(seed, 15)
		for _, mode := range []Mode{Case1, Case2} {
			sels, err := SelectMulti(mode, alpha, beta, 8, 0, Options{})
			if err != nil {
				return false
			}
			usedTop := make([]bool, 15)
			usedBottom := make([]bool, 15)
			for _, s := range sels {
				for i := range s.X {
					if s.X[i] {
						if usedTop[i] {
							return false // top stage reused
						}
						usedTop[i] = true
					}
					if s.Y[i] {
						if usedBottom[i] {
							return false // bottom stage reused
						}
						usedBottom[i] = true
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelectMultiCase1MarginsNonIncreasing(t *testing.T) {
	alpha, beta := multiVecs(3, 15)
	sels, err := SelectMulti(Case1, alpha, beta, 10, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) < 2 {
		t.Fatalf("expected several bits, got %d", len(sels))
	}
	for i := 1; i < len(sels); i++ {
		if sels[i].Margin > sels[i-1].Margin+1e-9 {
			t.Fatalf("Case-1 margins increased: %.3f after %.3f", sels[i].Margin, sels[i-1].Margin)
		}
	}
}

func TestSelectMultiMarginThresholdStops(t *testing.T) {
	alpha, beta := multiVecs(4, 15)
	all, err := SelectMulti(Case1, alpha, beta, 10, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	thr := all[len(all)-1].Margin + 0.001
	some, err := SelectMulti(Case1, alpha, beta, 10, thr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(some) >= len(all) {
		t.Fatalf("threshold %g did not reduce bit count (%d vs %d)", thr, len(some), len(all))
	}
	for _, s := range some {
		if s.Margin < thr {
			t.Fatalf("selection below threshold: %.3f < %.3f", s.Margin, thr)
		}
	}
}

func TestSelectMultiMaxBits(t *testing.T) {
	alpha, beta := multiVecs(5, 15)
	sels, err := SelectMulti(Case2, alpha, beta, 2, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) > 2 {
		t.Fatalf("maxBits violated: %d selections", len(sels))
	}
}

func TestSelectMultiEvaluateConsistent(t *testing.T) {
	alpha, beta := multiVecs(6, 13)
	sels, err := SelectMulti(Case2, alpha, beta, 5, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sels {
		bit, margin, err := s.Evaluate(alpha, beta)
		if err != nil {
			t.Fatal(err)
		}
		if bit != s.Bit || margin != s.Margin {
			t.Fatalf("selection %d: Evaluate disagrees with stored (%.3f/%v vs %.3f/%v)",
				i, margin, bit, s.Margin, s.Bit)
		}
	}
}

// TestSelectMultiRefusesNaNMargin pins that a NaN margin floor, which a
// test for a negative one lets through, is refused and named rather than
// read as no floor at all.
func TestSelectMultiRefusesNaNMargin(t *testing.T) {
	alpha, beta := multiVecs(7, 10)
	for _, mode := range []Mode{Case1, Case2} {
		sels, err := SelectMulti(mode, alpha, beta, 10, math.NaN(), Options{})
		if err == nil || !strings.Contains(err.Error(), "NaN") {
			t.Fatalf("mode %v: SelectMulti with a NaN margin floor gave %d selections, err %v", mode, len(sels), err)
		}
	}
}

func TestSelectMultiValidation(t *testing.T) {
	alpha, beta := multiVecs(7, 5)
	if _, err := SelectMulti(Case1, alpha, beta[:3], 2, 0, Options{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := SelectMulti(Case1, alpha, beta, 0, 0, Options{}); err == nil {
		t.Fatal("zero maxBits accepted")
	}
	if _, err := SelectMulti(Case1, alpha, beta, 2, -1, Options{}); err == nil {
		t.Fatal("negative threshold accepted")
	}
	if _, err := SelectMulti(Case1, nil, nil, 2, 0, Options{}); err == nil {
		t.Fatal("empty vectors accepted")
	}
	if _, err := SelectMulti(Case1, alpha, beta, 2, 1e12, Options{}); err == nil {
		t.Fatal("impossible threshold should yield an error")
	}
}
