// Package core implements the paper's primary contribution: post-silicon
// inverter selection for configurable ring-oscillator PUFs.
//
// A PUF pair consists of a top and a bottom configurable RO with n stages
// each. Given measured per-stage delay differences α (top) and β (bottom),
// the selection problem picks configuration vectors that maximize the delay
// difference between the two configured rings — the reliability margin of
// the generated bit.
//
//   - Case-1 (SelectCase1): both rings share one configuration vector x.
//     The objective is |Σ Δd_i·x_i| with Δd_i = α_i − β_i; the optimum keeps
//     exactly the stages whose Δd shares the sign of whichever signed sum
//     (Δ+ or Δ−) has larger magnitude (§III.D, eq. 1).
//
//   - Case-2 (SelectCase2): the rings may use different vectors x, y but
//     must select the same number of stages (an attacker who knew one ring
//     had fewer stages would know it is almost surely faster). The optimum
//     pairs the k slowest stages of one ring against the k fastest of the
//     other, growing k while the pairwise terms stay positive, in both
//     directions, keeping the better (§III.D, eq. 2–3).
//
// The property-based tests certify optimality of the fast paths against
// brute-force reference solvers (exhaustive_test.go).
package core

import (
	"errors"
	"fmt"
	"math"

	"ropuf/internal/circuit"
)

// Options adjusts the selection algorithms.
type Options struct {
	// RequireOddStages forces the number of selected stages to be odd so
	// that a physical ring closed through an inverting enable NAND keeps an
	// odd total inversion count and oscillates. The paper's arithmetic does
	// not impose this; it is off by default.
	RequireOddStages bool
}

// Selection is the outcome of solving the inverter-selection problem for
// one PUF pair.
type Selection struct {
	// X and Y are the configuration vectors of the top and bottom ring.
	// For Case-1 they are identical.
	X, Y circuit.Config

	// Margin is the absolute enrolled delay difference between the two
	// configured rings, in the same units as the input delay vectors.
	Margin float64

	// Bit is the enrolled response bit: true when the configured top ring
	// is slower than the configured bottom ring.
	Bit bool
}

// Evaluate recomputes the response bit and margin for fixed configurations
// against fresh delay measurements (e.g. at a different supply voltage).
// This is what a deployed PUF does at runtime.
func (s Selection) Evaluate(alpha, beta []float64) (bit bool, margin float64, err error) {
	if len(alpha) != len(s.X) || len(beta) != len(s.Y) {
		return false, 0, fmt.Errorf("core: Evaluate length mismatch: have α=%d β=%d, want %d/%d",
			len(alpha), len(beta), len(s.X), len(s.Y))
	}
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
	return d > 0, math.Abs(d), nil
}

// ErrDegenerate is returned when no stage offers any usable delay
// difference (all Δd exactly zero), so no bit can be defined.
var ErrDegenerate = errors.New("core: degenerate pair, all delay differences are zero")

// validateFinite rejects NaN/Inf delay measurements — a poisoned
// measurement must fail loudly at enrollment, not silently corrupt the
// selection's sums and comparisons.
func validateFinite(alpha, beta []float64) error {
	for i, v := range alpha {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: non-finite top-ring delay %g at stage %d", v, i)
		}
	}
	for i, v := range beta {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: non-finite bottom-ring delay %g at stage %d", v, i)
		}
	}
	return nil
}

// SelectCase1 solves the Case-1 selection problem for measured per-stage
// delay differences alpha (top ring) and beta (bottom ring).
func SelectCase1(alpha, beta []float64, opt Options) (Selection, error) {
	return selectCase1(alpha, beta, opt, new(Scratch))
}

// selectCase1 is SelectCase1 drawing configuration storage and sort scratch
// from s (the enrollment hot path shares one Scratch per worker).
func selectCase1(alpha, beta []float64, opt Options, s *Scratch) (Selection, error) {
	if len(alpha) != len(beta) {
		return Selection{}, fmt.Errorf("core: SelectCase1 length mismatch %d vs %d", len(alpha), len(beta))
	}
	n := len(alpha)
	if n == 0 {
		return Selection{}, errors.New("core: SelectCase1 with empty delay vectors")
	}
	if err := validateFinite(alpha, beta); err != nil {
		return Selection{}, err
	}
	var pos, neg float64 // Δ+ and Δ− (neg accumulates a negative value)
	for i := range alpha {
		d := alpha[i] - beta[i]
		if d > 0 {
			pos += d
		} else {
			neg += d
		}
	}
	if pos == 0 && neg == 0 {
		return Selection{}, ErrDegenerate
	}
	var cfg circuit.Config
	if opt.RequireOddStages {
		var err error
		cfg, err = bestOddCase1(alpha, beta, s)
		if err != nil {
			return Selection{}, err
		}
	} else {
		takePositive := pos > -neg
		cfg = s.config(n)
		for i := range alpha {
			d := alpha[i] - beta[i]
			if takePositive && d > 0 || !takePositive && d < 0 {
				cfg[i] = true
			}
		}
	}
	y := s.config(n)
	copy(y, cfg)
	sel := Selection{X: cfg, Y: y}
	bit, margin, err := sel.Evaluate(alpha, beta)
	if err != nil {
		return Selection{}, err
	}
	sel.Bit, sel.Margin = bit, margin
	return sel, nil
}

// bestOddCase1 finds the odd-cardinality subset maximizing |Σ Δd| over the
// stages it keeps. Starting from each sign class taken whole, an even class
// is repaired either by dropping its smallest-|Δd| member or by adding the
// smallest-|Δd| member of the opposite class — whichever costs less margin.
func bestOddCase1(alpha, beta []float64, s *Scratch) (circuit.Config, error) {
	n := len(alpha)
	type classState struct {
		cfg    circuit.Config
		margin float64
		ok     bool
	}
	build := func(positive bool) classState {
		cfg := s.config(n)
		var sum float64
		count := 0
		minIn := math.Inf(1)
		minInIdx := -1
		minOpp := math.Inf(1)
		minOppIdx := -1
		for i := range alpha {
			d := alpha[i] - beta[i]
			in := positive && d > 0 || !positive && d < 0
			if in {
				cfg[i] = true
				sum += math.Abs(d)
				count++
				if math.Abs(d) < minIn {
					minIn, minInIdx = math.Abs(d), i
				}
			} else if math.Abs(d) < minOpp {
				// Zero-Δd stages are ideal parity fillers: cost 0.
				minOpp, minOppIdx = math.Abs(d), i
			}
		}
		if count%2 == 1 {
			return classState{cfg: cfg, margin: sum, ok: count > 0}
		}
		// Even count: repair parity.
		dropCost, addCost := math.Inf(1), math.Inf(1)
		if count > 0 {
			dropCost = minIn
		}
		if minOppIdx >= 0 {
			addCost = minOpp
		}
		switch {
		case count == 0 && minOppIdx < 0:
			return classState{}
		case dropCost <= addCost:
			cfg[minInIdx] = false
			return classState{cfg: cfg, margin: sum - dropCost, ok: count-1 > 0}
		default:
			cfg[minOppIdx] = true
			return classState{cfg: cfg, margin: sum - addCost, ok: true}
		}
	}
	p := build(true)
	q := build(false)
	switch {
	case !p.ok && !q.ok:
		return nil, ErrDegenerate
	case !q.ok || (p.ok && p.margin >= q.margin):
		return p.cfg, nil
	default:
		return q.cfg, nil
	}
}

// SelectCase2 solves the Case-2 selection problem: independent
// configuration vectors for the two rings, constrained to select the same
// number of stages in each.
func SelectCase2(alpha, beta []float64, opt Options) (Selection, error) {
	return selectCase2(alpha, beta, opt, new(Scratch))
}

// case2Direction builds the best prefix pairing the slow side's largest
// delays against the fast side's smallest. slowAsc/fastAsc are the sorted
// index orders; it returns the selected prefix length k and its margin.
// A plain function (not a closure) so the hot path does not allocate a
// closure environment per call.
func case2Direction(slowVals, fastVals []float64, slowAsc, fastAsc []int, odd bool) (bestK int, bestMargin float64) {
	n := len(slowVals)
	bestK, bestMargin = 0, math.Inf(-1)
	sum := 0.0
	for k := 1; k <= n; k++ {
		// Pair the k-th slowest stage of the slow side against the
		// k-th fastest stage of the fast side.
		sum += slowVals[slowAsc[n-k]] - fastVals[fastAsc[k-1]]
		if odd && k%2 == 0 {
			continue
		}
		if sum > bestMargin {
			bestK, bestMargin = k, sum
		}
	}
	return bestK, bestMargin
}

// selectCase2 is SelectCase2 drawing configuration storage and sort scratch
// from s (the enrollment hot path shares one Scratch per worker).
func selectCase2(alpha, beta []float64, opt Options, s *Scratch) (Selection, error) {
	if len(alpha) != len(beta) {
		return Selection{}, fmt.Errorf("core: SelectCase2 length mismatch %d vs %d", len(alpha), len(beta))
	}
	n := len(alpha)
	if n == 0 {
		return Selection{}, errors.New("core: SelectCase2 with empty delay vectors")
	}
	if err := validateFinite(alpha, beta); err != nil {
		return Selection{}, err
	}

	s.aIdx = s.ascIdx(s.aIdx, alpha)
	s.bIdx = s.ascIdx(s.bIdx, beta)
	aAsc, bAsc := s.aIdx, s.bIdx

	kTop, mTop := case2Direction(alpha, beta, aAsc, bAsc, opt.RequireOddStages) // top slower
	kBot, mBot := case2Direction(beta, alpha, bAsc, aAsc, opt.RequireOddStages) // bottom slower

	x := s.config(n)
	y := s.config(n)
	if mTop >= mBot {
		for i := 0; i < kTop; i++ {
			x[aAsc[n-1-i]] = true // k slowest top stages
			y[bAsc[i]] = true     // k fastest bottom stages
		}
	} else {
		for i := 0; i < kBot; i++ {
			y[bAsc[n-1-i]] = true
			x[aAsc[i]] = true
		}
	}
	sel := Selection{X: x, Y: y}
	bit, margin, err := sel.Evaluate(alpha, beta)
	if err != nil {
		return Selection{}, err
	}
	sel.Bit, sel.Margin = bit, margin
	return sel, nil
}
