package core

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"ropuf/internal/rngx"
)

// devicePairs fabricates per-pair delay vectors for an imaginary device.
func devicePairs(seed uint64, numPairs, n int) []Pair {
	r := rngx.New(seed)
	pairs := make([]Pair, numPairs)
	for p := range pairs {
		alpha := make([]float64, n)
		beta := make([]float64, n)
		for i := 0; i < n; i++ {
			alpha[i] = 200 + 4*r.Norm()
			beta[i] = 200 + 4*r.Norm()
		}
		pairs[p] = Pair{Alpha: alpha, Beta: beta}
	}
	return pairs
}

func TestEnrollBasic(t *testing.T) {
	pairs := devicePairs(1, 32, 5)
	for _, mode := range []Mode{Case1, Case2} {
		e, err := Enroll(pairs, mode, 0, Options{})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if e.NumBits() != 32 {
			t.Fatalf("%v: NumBits = %d, want 32", mode, e.NumBits())
		}
		if len(e.Selections) != 32 || len(e.Mask) != 32 {
			t.Fatalf("%v: bookkeeping lengths wrong", mode)
		}
		for i, m := range e.Mask {
			if !m {
				t.Fatalf("%v: pair %d masked at threshold 0", mode, i)
			}
		}
	}
}

func TestEnrollThresholdMonotone(t *testing.T) {
	pairs := devicePairs(2, 64, 7)
	prev := 65
	for _, thr := range []float64{0, 5, 10, 20, 40} {
		e, err := Enroll(pairs, Case1, thr, Options{})
		if err != nil {
			// Very high thresholds may mask everything; that ends the sweep.
			break
		}
		if e.NumBits() > prev {
			t.Fatalf("threshold %g: bits increased from %d to %d", thr, prev, e.NumBits())
		}
		prev = e.NumBits()
	}
}

func TestEnrollEvaluateSameDataIsExact(t *testing.T) {
	pairs := devicePairs(3, 16, 5)
	for _, mode := range []Mode{Case1, Case2} {
		e, err := Enroll(pairs, mode, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		regen, err := e.Evaluate(pairs)
		if err != nil {
			t.Fatal(err)
		}
		flips, err := e.BitFlips(regen)
		if err != nil {
			t.Fatal(err)
		}
		if flips != 0 {
			t.Fatalf("%v: %d flips on identical data", mode, flips)
		}
	}
}

func TestEnrollEvaluatePerturbedData(t *testing.T) {
	pairs := devicePairs(4, 64, 5)
	e, err := Enroll(pairs, Case2, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Perturb delays slightly: margin-maximized bits should survive small
	// perturbations far more often than not.
	r := rngx.New(99)
	perturbed := make([]Pair, len(pairs))
	for i, p := range pairs {
		a := make([]float64, len(p.Alpha))
		b := make([]float64, len(p.Beta))
		for j := range a {
			a[j] = p.Alpha[j] + 0.3*r.Norm()
			b[j] = p.Beta[j] + 0.3*r.Norm()
		}
		perturbed[i] = Pair{Alpha: a, Beta: b}
	}
	regen, err := e.Evaluate(perturbed)
	if err != nil {
		t.Fatal(err)
	}
	flips, err := e.BitFlips(regen)
	if err != nil {
		t.Fatal(err)
	}
	if flips > len(pairs)/8 {
		t.Fatalf("too many flips under small perturbation: %d of %d", flips, len(pairs))
	}
}

func TestEnrollMasksDegeneratePairs(t *testing.T) {
	pairs := []Pair{
		{Alpha: []float64{5, 5}, Beta: []float64{5, 5}}, // degenerate for Case-1
		{Alpha: []float64{9, 5}, Beta: []float64{5, 5}}, // fine
		{Alpha: []float64{5, 2}, Beta: []float64{5, 9}}, // fine
	}
	e, err := Enroll(pairs, Case1, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Mask[0] {
		t.Fatal("degenerate pair not masked")
	}
	if e.NumBits() != 2 {
		t.Fatalf("NumBits = %d, want 2", e.NumBits())
	}
	// Evaluate must skip the masked pair and match lengths.
	regen, err := e.Evaluate(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if regen.Len() != 2 {
		t.Fatalf("regenerated length %d, want 2", regen.Len())
	}
}

func TestEnrollValidation(t *testing.T) {
	if _, err := Enroll(nil, Case1, 0, Options{}); err == nil {
		t.Fatal("Enroll accepted empty pair list")
	}
	if _, err := Enroll(devicePairs(5, 4, 3), Case1, -1, Options{}); err == nil {
		t.Fatal("Enroll accepted negative threshold")
	}
	if _, err := Enroll(devicePairs(6, 4, 3), Mode(7), 0, Options{}); err == nil {
		t.Fatal("Enroll accepted unknown mode")
	}
	// Threshold so high that nothing passes.
	if _, err := Enroll(devicePairs(7, 4, 3), Case1, 1e12, Options{}); err == nil {
		t.Fatal("Enroll produced bits with impossible threshold")
	}
}

// TestEnrollRejectsNaNThreshold pins that a NaN threshold is refused up
// front, as a negative one is, rather than masking every pair.
func TestEnrollRejectsNaNThreshold(t *testing.T) {
	_, err := Enroll(devicePairs(5, 4, 3), Case2, math.NaN(), Options{})
	if err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("Enroll with a NaN threshold: %v, want an error naming NaN", err)
	}
}

func TestEvaluatePairCountMismatch(t *testing.T) {
	pairs := devicePairs(8, 8, 3)
	e, err := Enroll(pairs, Case1, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Evaluate(pairs[:4]); err == nil {
		t.Fatal("Evaluate accepted wrong pair count")
	}
}

func TestMaskedEnrollmentKeepsMarginOrdering(t *testing.T) {
	// Every kept pair's margin must meet the threshold; every masked,
	// non-degenerate pair's margin must be below it.
	pairs := devicePairs(9, 64, 5)
	const thr = 8.0
	e, err := Enroll(pairs, Case1, thr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, sel := range e.Selections {
		if sel.X == nil {
			continue
		}
		if e.Mask[i] && sel.Margin < thr {
			t.Fatalf("pair %d kept with margin %.2f < %.2f", i, sel.Margin, thr)
		}
		if !e.Mask[i] && sel.Margin >= thr {
			t.Fatalf("pair %d masked with margin %.2f >= %.2f", i, sel.Margin, thr)
		}
	}
}

func selectionsEqual(a, b Selection) bool {
	return a.Margin == b.Margin && a.Bit == b.Bit && slices.Equal(a.X, b.X) && slices.Equal(a.Y, b.Y)
}

// TestEnrollMatchesSelect pins that every pair of an enrollment, whose
// configurations share one backing array, selects as a lone Select of
// that pair does. The devices mix rings of 1–24 stages and three delay
// regimes, so both stage-order paths run and some rings are too long for
// the stack's index arrays; a fifth of the pairs are degenerate for
// Case-1 and must keep the zero Selection.
func TestEnrollMatchesSelect(t *testing.T) {
	r := rngx.New(0xE75E)
	const thr = 1.0
	var network, sorted, long, degenerate int
	for trial := 0; trial < 40; trial++ {
		pairs := make([]Pair, 20)
		for i := range pairs {
			n := 1 + r.Intn(24)
			alpha, beta := randVecs(r, n, i%3)
			if i%5 == 4 {
				beta = slices.Clone(alpha) // every Δd is zero
			}
			pairs[i] = Pair{Alpha: alpha, Beta: beta}
			switch {
			case n > 16:
				long++
			case usesNetwork(alpha):
				network++
			default:
				sorted++
			}
		}
		for _, mode := range []Mode{Case1, Case2} {
			for _, odd := range []bool{false, true} {
				opt := Options{RequireOddStages: odd}
				e, err := Enroll(pairs, mode, thr, opt)
				if err != nil {
					t.Fatalf("trial %d %v odd=%v: %v", trial, mode, odd, err)
				}
				for i, p := range pairs {
					got := e.Selections[i]
					want, err := Select(mode, p.Alpha, p.Beta, opt)
					if errors.Is(err, ErrDegenerate) {
						degenerate++
						if got.X != nil || got.Y != nil || got.Margin != 0 || got.Bit || e.Mask[i] {
							t.Fatalf("trial %d %v odd=%v pair %d: degenerate pair enrolled as %+v, mask %v",
								trial, mode, odd, i, got, e.Mask[i])
						}
						continue
					}
					if err != nil {
						t.Fatalf("trial %d %v odd=%v pair %d: %v", trial, mode, odd, i, err)
					}
					if !selectionsEqual(got, want) || e.Mask[i] != (want.Margin >= thr) {
						t.Fatalf("trial %d %v odd=%v pair %d: enrolled X=%s Y=%s margin=%g mask %v, Select X=%s Y=%s margin=%g",
							trial, mode, odd, i, got.X, got.Y, got.Margin, e.Mask[i], want.X, want.Y, want.Margin)
					}
				}
			}
		}
	}
	if network == 0 || sorted == 0 || long == 0 || degenerate == 0 {
		t.Fatalf("rings through the network %d, through the sort %d, over 16 stages %d; degenerate selections %d: want each above 0",
			network, sorted, long, degenerate)
	}
}

// TestEnrollConfigsIndependent pins that the configurations carved from an
// enrollment's one backing array never alias: scribbling over pair 0's X
// and Y leaves pair 1 as a fresh Select of it, and each configuration's
// capacity ends at its length, so an append copies it out.
func TestEnrollConfigsIndependent(t *testing.T) {
	pairs := devicePairs(0x1D, 4, 9)
	for _, mode := range []Mode{Case1, Case2} {
		e, err := Enroll(pairs, mode, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		s0 := e.Selections[0]
		for i := range s0.X {
			s0.X[i] = !s0.X[i]
			s0.Y[i] = !s0.Y[i]
		}
		want0, err := Select(mode, pairs[0].Alpha, pairs[0].Beta, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want0.X {
			if s0.X[i] == want0.X[i] || s0.Y[i] == want0.Y[i] {
				t.Fatalf("%v: flipping pair 0's X and Y did not flip stage %d of both", mode, i)
			}
		}
		want1, err := Select(mode, pairs[1].Alpha, pairs[1].Beta, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !selectionsEqual(e.Selections[1], want1) {
			t.Fatalf("%v: scribbling over pair 0's configurations changed pair 1", mode)
		}
		for _, sel := range []Selection{s0, want0} {
			for _, cfg := range [][]bool{sel.X, sel.Y} {
				if grown := append(cfg, true); &grown[0] == &cfg[0] {
					t.Fatalf("%v: append grew a configuration in place", mode)
				}
			}
		}
	}
}

// TestSelectionAllocs pins what a selection costs: a Select of up to 16
// stages makes one allocation, its two configurations, in either mode and
// either sort path, with or without the odd constraint; and an enrollment
// makes a fixed number, whatever its pair count.
func TestSelectionAllocs(t *testing.T) {
	r := rngx.New(0xA11)
	for n := 1; n <= 16; n++ {
		for kind := 0; kind < 3; kind++ {
			alpha, beta := randVecs(r, n, kind)
			for _, mode := range []Mode{Case1, Case2} {
				for _, odd := range []bool{false, true} {
					opt := Options{RequireOddStages: odd}
					if _, err := Select(mode, alpha, beta, opt); errors.Is(err, ErrDegenerate) {
						continue
					}
					allocs := testing.AllocsPerRun(50, func() {
						if _, err := Select(mode, alpha, beta, opt); err != nil {
							t.Fatal(err)
						}
					})
					if allocs != 1 {
						t.Errorf("%d stages, kind %d, %v odd=%v: Select made %v allocations, want 1", n, kind, mode, odd, allocs)
					}
				}
			}
		}
	}
	enrollAllocs := func(numPairs int) float64 {
		pairs := devicePairs(0xA12, numPairs, 13)
		return testing.AllocsPerRun(20, func() {
			if _, err := Enroll(pairs, Case2, 0, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a8, a128 := enrollAllocs(8), enrollAllocs(128); a8 != a128 {
		t.Fatalf("a Case-2 Enroll of 13-stage rings made %v allocations for 8 pairs and %v for 128", a8, a128)
	}
}

// BenchmarkEnroll enrolls 64 distinct 128-pair × 13-stage Case-2 devices
// in turn, the shape of every enroll in perfbench's provision and auth
// workloads.
func BenchmarkEnroll(b *testing.B) {
	devices := make([][]Pair, 64)
	for i := range devices {
		devices[i] = devicePairs(uint64(0xE400+i), 128, 13)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Enroll(devices[i%len(devices)], Case2, 0, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
