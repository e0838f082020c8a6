package core

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"ropuf/internal/circuit"
	"ropuf/internal/rngx"
)

// randVecs draws a pair of delay vectors. kind selects the regime:
// 0 = positive delays with small spread (realistic ddiffs),
// 1 = signed values (stress), 2 = values with ties.
func randVecs(r *rngx.RNG, n, kind int) (alpha, beta []float64) {
	alpha = make([]float64, n)
	beta = make([]float64, n)
	for i := 0; i < n; i++ {
		switch kind {
		case 0:
			alpha[i] = 200 + 5*r.Norm()
			beta[i] = 200 + 5*r.Norm()
		case 1:
			alpha[i] = 10 * r.Norm()
			beta[i] = 10 * r.Norm()
		default:
			alpha[i] = float64(r.Intn(4))
			beta[i] = float64(r.Intn(4))
		}
	}
	return alpha, beta
}

func TestSelectCase1MatchesExhaustive(t *testing.T) {
	r := rngx.New(1)
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(11)
		alpha, beta := randVecs(r, n, trial%2)
		fast, errFast := SelectCase1(alpha, beta, Options{})
		ref, errRef := ExhaustiveCase1(alpha, beta, Options{})
		if errFast != nil || errRef != nil {
			if errors.Is(errFast, ErrDegenerate) && errors.Is(errRef, ErrDegenerate) {
				continue
			}
			t.Fatalf("trial %d: errors fast=%v ref=%v", trial, errFast, errRef)
		}
		if math.Abs(fast.Margin-ref.Margin) > 1e-9 {
			t.Fatalf("trial %d (n=%d): fast margin %.9f != exhaustive %.9f\nα=%v\nβ=%v",
				trial, n, fast.Margin, ref.Margin, alpha, beta)
		}
	}
}

func TestSelectCase1OddMatchesExhaustive(t *testing.T) {
	r := rngx.New(2)
	opt := Options{RequireOddStages: true}
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(9)
		alpha, beta := randVecs(r, n, trial%2)
		fast, errFast := SelectCase1(alpha, beta, opt)
		ref, errRef := ExhaustiveCase1(alpha, beta, opt)
		if errFast != nil || errRef != nil {
			if errors.Is(errFast, ErrDegenerate) && errors.Is(errRef, ErrDegenerate) {
				continue
			}
			t.Fatalf("trial %d: errors fast=%v ref=%v", trial, errFast, errRef)
		}
		if fast.X.Ones()%2 != 1 {
			t.Fatalf("trial %d: odd constraint violated, %d stages selected", trial, fast.X.Ones())
		}
		if math.Abs(fast.Margin-ref.Margin) > 1e-9 {
			t.Fatalf("trial %d (n=%d): odd fast margin %.9f != exhaustive %.9f\nα=%v\nβ=%v",
				trial, n, fast.Margin, ref.Margin, alpha, beta)
		}
	}
}

func TestSelectCase2MatchesExhaustive(t *testing.T) {
	r := rngx.New(3)
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(7)
		alpha, beta := randVecs(r, n, trial%2)
		fast, errFast := SelectCase2(alpha, beta, Options{})
		ref, errRef := ExhaustiveCase2(alpha, beta, Options{})
		if errFast != nil || errRef != nil {
			t.Fatalf("trial %d: errors fast=%v ref=%v", trial, errFast, errRef)
		}
		if math.Abs(fast.Margin-ref.Margin) > 1e-9 {
			t.Fatalf("trial %d (n=%d): fast margin %.9f != exhaustive %.9f\nα=%v\nβ=%v",
				trial, n, fast.Margin, ref.Margin, alpha, beta)
		}
	}
}

func TestSelectCase2OddMatchesExhaustive(t *testing.T) {
	r := rngx.New(4)
	opt := Options{RequireOddStages: true}
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(7)
		alpha, beta := randVecs(r, n, trial%2)
		fast, errFast := SelectCase2(alpha, beta, opt)
		ref, errRef := ExhaustiveCase2(alpha, beta, opt)
		if errFast != nil || errRef != nil {
			t.Fatalf("trial %d: errors fast=%v ref=%v", trial, errFast, errRef)
		}
		if fast.X.Ones()%2 != 1 {
			t.Fatalf("trial %d: odd constraint violated", trial)
		}
		if math.Abs(fast.Margin-ref.Margin) > 1e-9 {
			t.Fatalf("trial %d (n=%d): odd fast margin %.9f != exhaustive %.9f\nα=%v\nβ=%v",
				trial, n, fast.Margin, ref.Margin, alpha, beta)
		}
	}
}

// TestSelectCase2TiesMatchExhaustive runs Case-2 on tie-rich integer
// rings (randVecs kind 2), unconstrained and odd, against the exhaustive
// solver at 2–12 stages. Ties decide which of several equal stages a
// selection takes, never its margin. The exhaustive solver is O(4^n), so
// 11 and 12 stages get one ring each.
func TestSelectCase2TiesMatchExhaustive(t *testing.T) {
	r := rngx.New(6)
	for _, opt := range []Options{{}, {RequireOddStages: true}} {
		for trial := 0; trial < 204; trial++ {
			n := 2 + trial%9
			if trial >= 200 {
				n = 11 + trial%2
			}
			alpha, beta := randVecs(r, n, 2)
			fast, errFast := SelectCase2(alpha, beta, opt)
			ref, errRef := ExhaustiveCase2(alpha, beta, opt)
			if errFast != nil || errRef != nil {
				t.Fatalf("odd=%v trial %d: errors fast=%v ref=%v", opt.RequireOddStages, trial, errFast, errRef)
			}
			if opt.RequireOddStages && fast.X.Ones()%2 != 1 {
				t.Fatalf("trial %d: odd constraint violated", trial)
			}
			if math.Abs(fast.Margin-ref.Margin) > 1e-9 {
				t.Fatalf("odd=%v trial %d (n=%d): fast margin %.9f != exhaustive %.9f\nα=%v\nβ=%v",
					opt.RequireOddStages, trial, n, fast.Margin, ref.Margin, alpha, beta)
			}
		}
	}
}

func TestCase2EqualCountInvariant(t *testing.T) {
	r := rngx.New(5)
	check := func(seed uint64) bool {
		rr := rngx.New(seed)
		n := 2 + rr.Intn(20)
		alpha, beta := randVecs(rr, n, int(seed%3))
		sel, err := SelectCase2(alpha, beta, Options{})
		if err != nil {
			return false
		}
		return sel.X.Ones() == sel.Y.Ones() && sel.X.Ones() >= 1
	}
	_ = r
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCase1SharedConfigInvariant(t *testing.T) {
	check := func(seed uint64) bool {
		rr := rngx.New(seed)
		n := 2 + rr.Intn(20)
		alpha, beta := randVecs(rr, n, 0)
		sel, err := SelectCase1(alpha, beta, Options{})
		if err != nil {
			return errors.Is(err, ErrDegenerate)
		}
		if len(sel.X) != len(sel.Y) {
			return false
		}
		for i := range sel.X {
			if sel.X[i] != sel.Y[i] {
				return false
			}
		}
		return sel.X.Ones() >= 1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCase1MarginBeatsTraditional(t *testing.T) {
	// Selecting all stages (the traditional PUF) can never beat the
	// optimal Case-1 subset.
	check := func(seed uint64) bool {
		rr := rngx.New(seed)
		n := 2 + rr.Intn(16)
		alpha, beta := randVecs(rr, n, 0)
		sel, err := SelectCase1(alpha, beta, Options{})
		if err != nil {
			return errors.Is(err, ErrDegenerate)
		}
		var full float64
		for i := range alpha {
			full += alpha[i] - beta[i]
		}
		return sel.Margin >= math.Abs(full)-1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCase2MarginAtLeastCase1(t *testing.T) {
	// Case-2's feasible set contains every Case-1 solution, so its optimal
	// margin must be at least Case-1's.
	check := func(seed uint64) bool {
		rr := rngx.New(seed)
		n := 2 + rr.Intn(10)
		alpha, beta := randVecs(rr, n, 0)
		c1, err1 := SelectCase1(alpha, beta, Options{})
		c2, err2 := SelectCase2(alpha, beta, Options{})
		if err1 != nil {
			return errors.Is(err1, ErrDegenerate)
		}
		if err2 != nil {
			return false
		}
		return c2.Margin >= c1.Margin-1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelectionEvaluateConsistency(t *testing.T) {
	check := func(seed uint64) bool {
		rr := rngx.New(seed)
		n := 2 + rr.Intn(12)
		alpha, beta := randVecs(rr, n, 0)
		for _, mode := range []Mode{Case1, Case2} {
			sel, err := Select(mode, alpha, beta, Options{})
			if err != nil {
				if errors.Is(err, ErrDegenerate) {
					continue
				}
				return false
			}
			bit, margin, err := sel.Evaluate(alpha, beta)
			if err != nil {
				return false
			}
			if bit != sel.Bit || math.Abs(margin-sel.Margin) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelectCase1KnownExample(t *testing.T) {
	// Δd = α−β = [+3, −1, +2, −5]: Δ+ = 5, Δ− = −6, so the negative class
	// wins: select stages 1 and 3, margin 6, bottom... top is faster on the
	// selected stages, so the bit (top slower) is false.
	alpha := []float64{10, 9, 12, 5}
	beta := []float64{7, 10, 10, 10}
	sel, err := SelectCase1(alpha, beta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sel.X.String() != "0101" {
		t.Fatalf("config = %s, want 0101", sel.X)
	}
	if sel.Margin != 6 {
		t.Fatalf("margin = %g, want 6", sel.Margin)
	}
	if sel.Bit {
		t.Fatal("bit should be false (top faster)")
	}
}

func TestSelectCase2KnownExample(t *testing.T) {
	// α = [10, 1], β = [5, 5]: best is top's 10 vs bottom's 5 → margin 5,
	// one stage each, top slower.
	alpha := []float64{10, 1}
	beta := []float64{5, 5}
	sel, err := SelectCase2(alpha, beta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Margin != 5 {
		t.Fatalf("margin = %g, want 5", sel.Margin)
	}
	if sel.X.Ones() != 1 || sel.Y.Ones() != 1 {
		t.Fatalf("expected single-stage selection, got %s / %s", sel.X, sel.Y)
	}
	if !sel.X[0] {
		t.Fatal("top ring should select stage 0 (delay 10)")
	}
	if !sel.Bit {
		t.Fatal("bit should be true (top slower)")
	}
}

func TestSelectDegenerate(t *testing.T) {
	alpha := []float64{5, 5}
	beta := []float64{5, 5}
	if _, err := SelectCase1(alpha, beta, Options{}); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("want ErrDegenerate, got %v", err)
	}
	// Case-2 is never degenerate with equal vectors: margin 0 single pair.
	sel, err := SelectCase2(alpha, beta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Margin != 0 {
		t.Fatalf("Case-2 margin = %g, want 0", sel.Margin)
	}
}

func TestSelectValidation(t *testing.T) {
	if _, err := SelectCase1([]float64{1}, []float64{1, 2}, Options{}); err == nil {
		t.Fatal("SelectCase1 accepted mismatched lengths")
	}
	if _, err := SelectCase2([]float64{1}, []float64{1, 2}, Options{}); err == nil {
		t.Fatal("SelectCase2 accepted mismatched lengths")
	}
	if _, err := SelectCase1(nil, nil, Options{}); err == nil {
		t.Fatal("SelectCase1 accepted empty vectors")
	}
	if _, err := SelectCase2(nil, nil, Options{}); err == nil {
		t.Fatal("SelectCase2 accepted empty vectors")
	}
	if _, err := Select(Mode(0), []float64{1}, []float64{1}, Options{}); err == nil {
		t.Fatal("Select accepted unknown mode")
	}
	if _, err := ExhaustiveCase1(make([]float64, 30), make([]float64, 30), Options{}); err == nil {
		t.Fatal("ExhaustiveCase1 accepted oversized input")
	}
	if _, err := ExhaustiveCase2(make([]float64, 16), make([]float64, 16), Options{}); err == nil {
		t.Fatal("ExhaustiveCase2 accepted oversized input")
	}
}

func TestEvaluateValidation(t *testing.T) {
	sel, err := SelectCase1([]float64{3, 1}, []float64{1, 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sel.Evaluate([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("Evaluate accepted mismatched lengths")
	}
}

func TestModeString(t *testing.T) {
	if Case1.String() != "Case-1" || Case2.String() != "Case-2" {
		t.Fatal("Mode.String wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatalf("unknown mode string = %s", Mode(9))
	}
}

// assertOddMatchesExhaustive compares both fast solvers against their
// brute-force references under RequireOddStages, accepting only matching
// errors or matching optimal margins with odd selected-stage counts.
func assertOddMatchesExhaustive(t *testing.T, label string, alpha, beta []float64) {
	t.Helper()
	opt := Options{RequireOddStages: true}
	fast1, errFast1 := SelectCase1(alpha, beta, opt)
	ref1, errRef1 := ExhaustiveCase1(alpha, beta, opt)
	switch {
	case errFast1 != nil || errRef1 != nil:
		if !errors.Is(errFast1, ErrDegenerate) || !errors.Is(errRef1, ErrDegenerate) {
			t.Fatalf("%s: Case-1 errors fast=%v ref=%v", label, errFast1, errRef1)
		}
	default:
		if fast1.X.Ones()%2 != 1 {
			t.Fatalf("%s: Case-1 selected %d stages, want odd", label, fast1.X.Ones())
		}
		if math.Abs(fast1.Margin-ref1.Margin) > 1e-9 {
			t.Fatalf("%s: Case-1 margin %.9f != exhaustive %.9f\nα=%v\nβ=%v",
				label, fast1.Margin, ref1.Margin, alpha, beta)
		}
	}
	if len(alpha) > 12 {
		return // beyond ExhaustiveCase2's reach
	}
	fast2, errFast2 := SelectCase2(alpha, beta, opt)
	ref2, errRef2 := ExhaustiveCase2(alpha, beta, opt)
	if errFast2 != nil || errRef2 != nil {
		t.Fatalf("%s: Case-2 errors fast=%v ref=%v", label, errFast2, errRef2)
	}
	if fast2.X.Ones()%2 != 1 || fast2.X.Ones() != fast2.Y.Ones() {
		t.Fatalf("%s: Case-2 selected %d/%d stages, want equal odd", label, fast2.X.Ones(), fast2.Y.Ones())
	}
	if math.Abs(fast2.Margin-ref2.Margin) > 1e-9 {
		t.Fatalf("%s: Case-2 margin %.9f != exhaustive %.9f\nα=%v\nβ=%v",
			label, fast2.Margin, ref2.Margin, alpha, beta)
	}
}

// TestSelectOddAdversarialCases certifies the greedy odd-parity repair in
// bestOddCase1 (and the odd-k Case-2 scan) on the inputs where a greedy
// fix is most likely to go wrong: exact ties between the sign classes
// (Δ+ == |Δ−|), zero-Δd stages usable as free parity fillers, and
// single-stage vectors.
func TestSelectOddAdversarialCases(t *testing.T) {
	cases := []struct {
		name        string
		alpha, beta []float64
	}{
		// Δd = [+2, −2]: exact tie Δ+ == |Δ−|, both classes even.
		{"exact tie", []float64{3, 1}, []float64{1, 3}},
		// Δd = [+2, −2, 0]: the zero stage is a free parity filler.
		{"tie with zero filler", []float64{3, 1, 5}, []float64{1, 3, 5}},
		// Δd = [+1, +1, 0]: even positive class; adding the zero stage is
		// strictly cheaper than dropping a member.
		{"zero filler beats drop", []float64{2, 2, 4}, []float64{1, 1, 4}},
		// Δd = [+1, +1]: even class, no filler — the repair must drop.
		{"forced drop", []float64{2, 2}, []float64{1, 1}},
		// Δd = [+5, +1, −1]: repairing the positive class by adding the
		// small negative stage beats dropping the small positive one.
		{"cross-class filler", []float64{6, 2, 1}, []float64{1, 1, 2}},
		// Δd = [+3, −3, +1, −1]: ties everywhere, all classes even.
		{"double tie", []float64{4, 1, 2, 1}, []float64{1, 4, 1, 2}},
		// Single-stage vectors: the smallest odd problem.
		{"single stage positive", []float64{2}, []float64{1}},
		{"single stage negative", []float64{1}, []float64{2}},
		// Δd = [0, 0, +1]: zeros dominate; only one informative stage.
		{"zeros dominate", []float64{5, 5, 6}, []float64{5, 5, 5}},
		// Δd = [0, 0]: nothing usable in Case-1 (degenerate), while the
		// Case-2 solver must still pick an odd single pair at margin 0.
		{"all zero", []float64{5, 5}, []float64{5, 5}},
	}
	for _, c := range cases {
		assertOddMatchesExhaustive(t, c.name, c.alpha, c.beta)
	}
}

// TestSelectOddTieRichMatchesExhaustive hammers the odd-parity paths with
// small-integer delay vectors (randVecs kind 2), the regime saturated with
// exact ties and zero-Δd stages that the Gaussian-input property tests
// never produce.
func TestSelectOddTieRichMatchesExhaustive(t *testing.T) {
	r := rngx.New(11)
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(10)
		alpha, beta := randVecs(r, n, 2)
		assertOddMatchesExhaustive(t, fmt.Sprintf("trial %d (n=%d)", trial, n), alpha, beta)
	}
}

func TestSelectRejectsNonFiniteInputs(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	cases := [][2][]float64{
		{{nan, 1}, {1, 2}},
		{{1, 2}, {inf, 1}},
		{{1, math.Inf(-1)}, {1, 2}},
	}
	for i, c := range cases {
		if _, err := SelectCase1(c[0], c[1], Options{}); err == nil {
			t.Errorf("case %d: SelectCase1 accepted non-finite input", i)
		}
		if _, err := SelectCase2(c[0], c[1], Options{}); err == nil {
			t.Errorf("case %d: SelectCase2 accepted non-finite input", i)
		}
	}
}

// branchyEvaluate is Selection.Evaluate as it was before its sums went
// through a mask: each sum adds the selected stages alone, branching on
// every selection bit.
func branchyEvaluate(s Selection, alpha, beta []float64) (bit bool, margin float64) {
	var top, bottom float64
	for i, sel := range s.X {
		if sel {
			top += alpha[i]
		}
	}
	for i, sel := range s.Y {
		if sel {
			bottom += beta[i]
		}
	}
	d := top - bottom
	return d > 0, math.Abs(d)
}

// TestEvaluateMatchesBranchySum holds Evaluate's masked sums to the
// branchy ones bit for bit, a NaN margin matching any NaN, over 1,000,000
// random pairs of 1–20 stages. A quarter of the delays are special (±0,
// ±Inf, NaN, ±1e308, ±MaxFloat64, subnormals), the rest ordinary values
// near a picosecond delay or spread over ±1000.
func TestEvaluateMatchesBranchySum(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		1e308, -1e308, math.MaxFloat64, -math.MaxFloat64,
		5e-324, -5e-324, 1e-310, -2.5e-320,
	}
	r := rngx.New(0xE7A1)
	var values [4096]float64
	for i := range values {
		switch i & 3 {
		case 0:
			values[i] = special[(i>>2)%len(special)]
		case 1:
			values[i] = 200 + 5*r.Norm()
		default:
			values[i] = 1e3 * r.Norm()
		}
	}
	alphaBuf, betaBuf := make([]float64, 20), make([]float64, 20)
	xBuf, yBuf := make(circuit.Config, 20), make(circuit.Config, 20)
	for trial := 0; trial < 1_000_000; trial++ {
		n := 1 + r.Intn(20)
		alpha, beta := alphaBuf[:n], betaBuf[:n]
		sel := Selection{X: xBuf[:n], Y: yBuf[:n]}
		picks := r.Uint64()
		for i := 0; i < n; i++ {
			u := r.Uint64()
			alpha[i], beta[i] = values[u%4096], values[u>>12%4096]
			sel.X[i], sel.Y[i] = picks>>i&1 != 0, picks>>(32+i)&1 != 0
		}
		bit, margin, err := sel.Evaluate(alpha, beta)
		if err != nil {
			t.Fatal(err)
		}
		wantBit, wantMargin := branchyEvaluate(sel, alpha, beta)
		same := math.Float64bits(margin) == math.Float64bits(wantMargin) ||
			math.IsNaN(margin) && math.IsNaN(wantMargin)
		if bit != wantBit || !same {
			t.Fatalf("trial %d: Evaluate (%v, %v), branchy sum (%v, %v)\nα=%v\nβ=%v\nX=%s Y=%s",
				trial, bit, margin, wantBit, wantMargin, alpha, beta, sel.X, sel.Y)
		}
	}
}
