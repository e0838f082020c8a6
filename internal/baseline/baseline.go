// Package baseline implements the RO PUF designs the paper compares
// against:
//
//   - the traditional RO PUF (Suh & Devadas, DAC'07): consecutive RO pairs,
//     one bit per pair from the sign of the delay difference;
//   - the 1-out-of-8 scheme (same paper): each group of 8 ROs contributes
//     one bit from the maximally separated pair, trading 4× hardware for
//     near-perfect reliability;
//   - the Maiti–Schaumont configurable RO (FPL'09): every stage multiplexes
//     one of two inverters, the pair tries all shared configurations and
//     enrolls the one with the largest frequency distance (related-work
//     comparator for the paper's finer-grained scheme).
//
// All functions operate on per-RO delays (not frequencies): larger value =
// slower ring, matching package core's convention.
package baseline

import (
	"errors"
	"fmt"
	"math"

	"ropuf/internal/bits"
)

// TraditionalEnrollment is a configured traditional RO PUF: pairs of
// consecutive ROs, optionally threshold-masked.
type TraditionalEnrollment struct {
	Threshold float64
	Margins   []float64 // one per pair
	Mask      []bool
	Response  *bits.Stream
}

// EnrollTraditional pairs delays[2i] (top) with delays[2i+1] (bottom); the
// bit is true when the top ring is slower. Pairs with |difference| below
// threshold are masked. A trailing unpaired RO is ignored.
func EnrollTraditional(delays []float64, threshold float64) (*TraditionalEnrollment, error) {
	if len(delays) < 2 {
		return nil, errors.New("baseline: EnrollTraditional needs at least two ROs")
	}
	if !(threshold >= 0) {
		return nil, fmt.Errorf("baseline: threshold %g, want a non-negative number", threshold)
	}
	pairs := len(delays) / 2
	e := &TraditionalEnrollment{
		Threshold: threshold,
		Margins:   make([]float64, pairs),
		Mask:      make([]bool, pairs),
		Response:  bits.New(pairs),
	}
	for i := 0; i < pairs; i++ {
		d := delays[2*i] - delays[2*i+1]
		e.Margins[i] = math.Abs(d)
		if e.Margins[i] >= threshold && d != 0 {
			e.Mask[i] = true
			e.Response.Append(d > 0)
		}
	}
	if e.Response.Len() == 0 {
		return nil, errors.New("baseline: traditional enrollment produced no bits")
	}
	return e, nil
}

// Evaluate regenerates the response from fresh delay measurements using the
// enrolled mask.
func (e *TraditionalEnrollment) Evaluate(delays []float64) (*bits.Stream, error) {
	if len(delays)/2 != len(e.Mask) {
		return nil, fmt.Errorf("baseline: Evaluate got %d ROs, enrolled %d pairs", len(delays), len(e.Mask))
	}
	out := bits.New(e.Response.Len())
	for i := range e.Mask {
		if !e.Mask[i] {
			continue
		}
		out.Append(delays[2*i]-delays[2*i+1] > 0)
	}
	return out, nil
}

// OneOutOf8Enrollment is a configured 1-out-of-8 PUF: for every group of 8
// ROs it stores the index pair (A, B) selected at enrollment (helper data).
type OneOutOf8Enrollment struct {
	// A and B are per-group RO indices within the group (0..7), A < B.
	A, B     []int
	Margins  []float64
	Response *bits.Stream
}

// GroupSize is the RO group size of the 1-out-of-8 scheme.
const GroupSize = 8

// EnrollOneOutOf8 selects, in each group of 8 ROs, the slowest and fastest
// rings (the maximally separated pair) and derives the bit from their index
// order: true when the lower-indexed ring of the pair is the slower one.
// Leftover ROs beyond the last full group are ignored.
func EnrollOneOutOf8(delays []float64) (*OneOutOf8Enrollment, error) {
	groups := len(delays) / GroupSize
	if groups == 0 {
		return nil, fmt.Errorf("baseline: EnrollOneOutOf8 needs at least %d ROs, got %d", GroupSize, len(delays))
	}
	e := &OneOutOf8Enrollment{
		A:        make([]int, groups),
		B:        make([]int, groups),
		Margins:  make([]float64, groups),
		Response: bits.New(groups),
	}
	for g := 0; g < groups; g++ {
		base := g * GroupSize
		slow, fast := 0, 0
		for j := 1; j < GroupSize; j++ {
			if delays[base+j] > delays[base+slow] {
				slow = j
			}
			if delays[base+j] < delays[base+fast] {
				fast = j
			}
		}
		if slow == fast {
			// All eight delays identical; impossible with continuous
			// variation, but keep the invariant A != B.
			fast = (slow + 1) % GroupSize
		}
		a, b := slow, fast
		if a > b {
			a, b = b, a
		}
		e.A[g], e.B[g] = a, b
		e.Margins[g] = math.Abs(delays[base+slow] - delays[base+fast])
		e.Response.Append(delays[base+a] > delays[base+b])
	}
	return e, nil
}

// Evaluate regenerates the response by re-comparing the enrolled pair in
// each group under fresh measurements.
func (e *OneOutOf8Enrollment) Evaluate(delays []float64) (*bits.Stream, error) {
	if len(delays)/GroupSize != len(e.A) {
		return nil, fmt.Errorf("baseline: Evaluate got %d ROs, enrolled %d groups", len(delays), len(e.A))
	}
	out := bits.New(len(e.A))
	for g := range e.A {
		base := g * GroupSize
		out.Append(delays[base+e.A[g]] > delays[base+e.B[g]])
	}
	return out, nil
}

// MaitiEnrollment is a configured Maiti–Schaumont pair: both rings share
// one configuration chosen from the 2^stages possibilities.
type MaitiEnrollment struct {
	Config   int // shared configuration index (bit i selects inverter variant of stage i)
	Margin   float64
	Bit      bool
	NumStage int
}

// EnrollMaiti picks, for one pair of s-stage configurable ROs, the shared
// configuration maximizing |delay difference|. top and bottom hold the two
// candidate inverter delays per stage: top[i][0] and top[i][1] are stage
// i's two selectable inverter delays in the top ring.
func EnrollMaiti(top, bottom [][2]float64) (*MaitiEnrollment, error) {
	s := len(top)
	if s == 0 || s != len(bottom) {
		return nil, fmt.Errorf("baseline: EnrollMaiti stage mismatch %d vs %d", len(top), len(bottom))
	}
	if s > 20 {
		return nil, fmt.Errorf("baseline: EnrollMaiti supports up to 20 stages, got %d", s)
	}
	bestMargin := -1.0
	bestCfg := 0
	bestBit := false
	for cfg := 0; cfg < 1<<uint(s); cfg++ {
		var d float64
		for i := 0; i < s; i++ {
			v := cfg >> uint(i) & 1
			d += top[i][v] - bottom[i][v]
		}
		if m := math.Abs(d); m > bestMargin {
			bestMargin, bestCfg, bestBit = m, cfg, d > 0
		}
	}
	return &MaitiEnrollment{Config: bestCfg, Margin: bestMargin, Bit: bestBit, NumStage: s}, nil
}

// Evaluate recomputes the pair's bit under fresh per-stage delays using the
// enrolled configuration.
func (e *MaitiEnrollment) Evaluate(top, bottom [][2]float64) (bool, error) {
	if len(top) != e.NumStage || len(bottom) != e.NumStage {
		return false, fmt.Errorf("baseline: Evaluate stage mismatch %d/%d, enrolled %d", len(top), len(bottom), e.NumStage)
	}
	var d float64
	for i := 0; i < e.NumStage; i++ {
		v := e.Config >> uint(i) & 1
		d += top[i][v] - bottom[i][v]
	}
	return d > 0, nil
}
