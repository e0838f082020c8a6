package baseline

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ropuf/internal/rngx"
)

func randDelays(seed uint64, n int) []float64 {
	r := rngx.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = 10000 + 100*r.Norm()
	}
	return out
}

func TestTraditionalBits(t *testing.T) {
	delays := []float64{10, 5, 3, 8, 7, 7.5}
	e, err := EnrollTraditional(delays, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Response.String() != "100" {
		t.Fatalf("response = %s, want 100", e.Response.String())
	}
	wantMargins := []float64{5, 5, 0.5}
	for i, m := range wantMargins {
		if math.Abs(e.Margins[i]-m) > 1e-12 {
			t.Fatalf("margin %d = %g, want %g", i, e.Margins[i], m)
		}
	}
}

func TestTraditionalThresholdMasks(t *testing.T) {
	delays := []float64{10, 5, 3, 8, 7, 7.5}
	e, err := EnrollTraditional(delays, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Response.Len() != 2 {
		t.Fatalf("bits = %d, want 2 (third pair below threshold)", e.Response.Len())
	}
	if e.Mask[2] {
		t.Fatal("pair 2 should be masked")
	}
}

func TestTraditionalIgnoresOddLeftover(t *testing.T) {
	delays := []float64{2, 1, 5}
	e, err := EnrollTraditional(delays, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Response.Len() != 1 {
		t.Fatalf("bits = %d, want 1", e.Response.Len())
	}
}

func TestTraditionalEvaluateRoundtrip(t *testing.T) {
	delays := randDelays(1, 64)
	e, err := EnrollTraditional(delays, 0)
	if err != nil {
		t.Fatal(err)
	}
	regen, err := e.Evaluate(delays)
	if err != nil {
		t.Fatal(err)
	}
	if !regen.Equal(e.Response) {
		t.Fatal("re-evaluation on identical data changed bits")
	}
	if _, err := e.Evaluate(delays[:10]); err == nil {
		t.Fatal("Evaluate accepted wrong RO count")
	}
}

func TestTraditionalValidation(t *testing.T) {
	if _, err := EnrollTraditional([]float64{1}, 0); err == nil {
		t.Fatal("accepted single RO")
	}
	if _, err := EnrollTraditional([]float64{1, 2}, -1); err == nil {
		t.Fatal("accepted negative threshold")
	}
	// Identical delays with threshold 0: pair yields no bit (d == 0).
	if _, err := EnrollTraditional([]float64{3, 3}, 0); err == nil {
		t.Fatal("all-equal delays should produce no bits and error")
	}
}

// TestTraditionalRefusesNaNThreshold pins that a NaN threshold, which a
// test for a negative one lets through, is refused and named, not read as
// a threshold that masks every pair.
func TestTraditionalRefusesNaNThreshold(t *testing.T) {
	_, err := EnrollTraditional([]float64{1, 2, 4, 3}, math.NaN())
	if err == nil || !strings.Contains(err.Error(), "threshold NaN") {
		t.Fatalf("EnrollTraditional with a NaN threshold: err %v, want it to name the threshold", err)
	}
}

func TestOneOutOf8SelectsExtremes(t *testing.T) {
	delays := []float64{5, 9, 1, 6, 7, 3, 4, 8}
	e, err := EnrollOneOutOf8(delays)
	if err != nil {
		t.Fatal(err)
	}
	// Slowest index 1 (9), fastest index 2 (1): pair (1,2).
	if e.A[0] != 1 || e.B[0] != 2 {
		t.Fatalf("selected pair (%d,%d), want (1,2)", e.A[0], e.B[0])
	}
	if math.Abs(e.Margins[0]-8) > 1e-12 {
		t.Fatalf("margin = %g, want 8", e.Margins[0])
	}
	// Bit: delays[1] > delays[2] → lower-indexed (A=1) slower → true.
	if !e.Response.Bit(0) {
		t.Fatal("bit should be true")
	}
}

func TestOneOutOf8MultipleGroups(t *testing.T) {
	delays := randDelays(2, 32)
	e, err := EnrollOneOutOf8(delays)
	if err != nil {
		t.Fatal(err)
	}
	if e.Response.Len() != 4 {
		t.Fatalf("bits = %d, want 4", e.Response.Len())
	}
	regen, err := e.Evaluate(delays)
	if err != nil {
		t.Fatal(err)
	}
	if !regen.Equal(e.Response) {
		t.Fatal("re-evaluation changed bits")
	}
}

func TestOneOutOf8Validation(t *testing.T) {
	if _, err := EnrollOneOutOf8(randDelays(3, 7)); err == nil {
		t.Fatal("accepted fewer than 8 ROs")
	}
	e, _ := EnrollOneOutOf8(randDelays(4, 16))
	if _, err := e.Evaluate(randDelays(4, 8)); err == nil {
		t.Fatal("Evaluate accepted wrong group count")
	}
}

func TestOneOutOf8MoreReliableThanTraditional(t *testing.T) {
	// Under random perturbation the max-distance pair flips far less often
	// than consecutive pairs. Compare flip counts over many trials.
	r := rngx.New(5)
	tradFlips, oo8Flips := 0, 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		delays := make([]float64, 16)
		for i := range delays {
			delays[i] = 10000 + 20*r.Norm()
		}
		trad, err := EnrollTraditional(delays, 0)
		if err != nil {
			continue
		}
		oo8, err := EnrollOneOutOf8(delays)
		if err != nil {
			t.Fatal(err)
		}
		noisy := make([]float64, len(delays))
		for i := range delays {
			noisy[i] = delays[i] + 6*r.Norm()
		}
		tr, err := trad.Evaluate(noisy)
		if err != nil {
			t.Fatal(err)
		}
		or, err := oo8.Evaluate(noisy)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tr.Len(); i++ {
			if tr.Bit(i) != trad.Response.Bit(i) {
				tradFlips++
			}
		}
		for i := 0; i < or.Len(); i++ {
			if or.Bit(i) != oo8.Response.Bit(i) {
				oo8Flips++
			}
		}
	}
	if oo8Flips*4 >= tradFlips && tradFlips > 0 {
		t.Fatalf("1-out-of-8 flips (%d) not clearly below traditional (%d)", oo8Flips, tradFlips)
	}
}

func TestMaitiEnrollPicksBestConfig(t *testing.T) {
	top := [][2]float64{{10, 12}, {9, 9.5}}
	bottom := [][2]float64{{11, 10}, {9, 10}}
	e, err := EnrollMaiti(top, bottom)
	if err != nil {
		t.Fatal(err)
	}
	// Brute-force confirm the margin is maximal.
	best := -1.0
	for cfg := 0; cfg < 4; cfg++ {
		var d float64
		for i := 0; i < 2; i++ {
			v := cfg >> uint(i) & 1
			d += top[i][v] - bottom[i][v]
		}
		if m := math.Abs(d); m > best {
			best = m
		}
	}
	if math.Abs(e.Margin-best) > 1e-12 {
		t.Fatalf("margin %g, want %g", e.Margin, best)
	}
}

func TestMaitiEvaluateConsistency(t *testing.T) {
	check := func(seed uint64) bool {
		r := rngx.New(seed)
		s := 1 + r.Intn(6)
		top := make([][2]float64, s)
		bottom := make([][2]float64, s)
		for i := 0; i < s; i++ {
			top[i] = [2]float64{100 + r.Norm(), 100 + r.Norm()}
			bottom[i] = [2]float64{100 + r.Norm(), 100 + r.Norm()}
		}
		e, err := EnrollMaiti(top, bottom)
		if err != nil {
			return false
		}
		bit, err := e.Evaluate(top, bottom)
		if err != nil {
			return false
		}
		return bit == e.Bit
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaitiValidation(t *testing.T) {
	if _, err := EnrollMaiti(nil, nil); err == nil {
		t.Fatal("accepted empty stages")
	}
	if _, err := EnrollMaiti(make([][2]float64, 2), make([][2]float64, 3)); err == nil {
		t.Fatal("accepted mismatched stage counts")
	}
	if _, err := EnrollMaiti(make([][2]float64, 21), make([][2]float64, 21)); err == nil {
		t.Fatal("accepted oversized stage count")
	}
	e, _ := EnrollMaiti(make([][2]float64, 2), make([][2]float64, 2))
	if _, err := e.Evaluate(make([][2]float64, 3), make([][2]float64, 3)); err == nil {
		t.Fatal("Evaluate accepted wrong stage count")
	}
}
