package baseline

import (
	"errors"
	"fmt"

	"ropuf/internal/bits"
)

// CooperativeEnrollment implements the enrollment-side idea of the
// temperature-aware cooperative RO PUF (Yin & Qu, HOST 2009 — the paper's
// reference [2]): instead of discarding every pair whose delay margin is
// below a worst-case threshold, measure the pairs across the enrollment
// environment corners and keep exactly those whose comparison is invariant
// at every corner. That recovers most of the bits a fixed threshold would
// throw away (higher hardware utilization than 1-out-of-8) at the price of
// multi-corner enrollment measurements.
type CooperativeEnrollment struct {
	Mask     []bool // pairs whose ordering held at every corner
	Response *bits.Stream
}

// EnrollCooperative takes per-corner delay vectors (the first entry is the
// reference/nominal corner) and enrolls consecutive RO pairs whose
// comparison agrees across all corners.
func EnrollCooperative(delaysByCorner [][]float64) (*CooperativeEnrollment, error) {
	if len(delaysByCorner) == 0 {
		return nil, errors.New("baseline: EnrollCooperative needs at least one corner")
	}
	n := len(delaysByCorner[0])
	if n < 2 {
		return nil, errors.New("baseline: EnrollCooperative needs at least two ROs")
	}
	for c, d := range delaysByCorner {
		if len(d) != n {
			return nil, fmt.Errorf("baseline: corner %d has %d ROs, want %d", c, len(d), n)
		}
	}
	pairs := n / 2
	e := &CooperativeEnrollment{
		Mask:     make([]bool, pairs),
		Response: bits.New(pairs),
	}
	for p := 0; p < pairs; p++ {
		ref := delaysByCorner[0][2*p] > delaysByCorner[0][2*p+1]
		zero := delaysByCorner[0][2*p] == delaysByCorner[0][2*p+1]
		stable := !zero
		for _, d := range delaysByCorner[1:] {
			if (d[2*p] > d[2*p+1]) != ref || d[2*p] == d[2*p+1] {
				stable = false
				break
			}
		}
		if stable {
			e.Mask[p] = true
			e.Response.Append(ref)
		}
	}
	if e.Response.Len() == 0 {
		return nil, errors.New("baseline: cooperative enrollment produced no stable pairs")
	}
	return e, nil
}

// Evaluate regenerates the response from fresh delays using the enrolled
// mask.
func (e *CooperativeEnrollment) Evaluate(delays []float64) (*bits.Stream, error) {
	if len(delays)/2 != len(e.Mask) {
		return nil, fmt.Errorf("baseline: Evaluate got %d ROs, enrolled %d pairs", len(delays), len(e.Mask))
	}
	out := bits.New(e.Response.Len())
	for p, kept := range e.Mask {
		if !kept {
			continue
		}
		out.Append(delays[2*p] > delays[2*p+1])
	}
	return out, nil
}
