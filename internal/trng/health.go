package trng

import (
	"fmt"
	"math"
)

// SP 800-90B §4.4 continuous health tests. Real TRNG deployments run these
// on every raw sample to catch total failure (a stuck ring, a lost sampling
// clock) immediately, long before any offline statistical suite would.
//
//   - Repetition Count Test (RCT): fires when one value repeats so many
//     times in a row that the assessed entropy makes it astronomically
//     unlikely.
//   - Adaptive Proportion Test (APT): fires when one value occupies too
//     much of a fixed-size window.
//
// Both cutoffs derive from the claimed min-entropy H and a false-positive
// probability of 2⁻²⁰ per the 90B formulas.

// Health runs both continuous tests over a raw bit stream.
type Health struct {
	rctCutoff int
	aptCutoff int
	aptWindow int

	// RCT state.
	last    bool
	runLen  int
	started bool
	// APT state.
	windowFill int
	ref        bool
	refCount   int

	rctFailures int
	aptFailures int
	samples     int
}

// NewHealth builds the monitor for a claimed per-bit min-entropy h
// (0 < h <= 1), with the 90B window size of 1024 for binary sources.
func NewHealth(h float64) (*Health, error) {
	if h <= 0 || h > 1 {
		return nil, fmt.Errorf("trng: claimed min-entropy %g outside (0,1]", h)
	}
	const alphaExp = 20 // false-positive probability 2^-20
	// RCT cutoff: 1 + ceil(20 / H) (90B §4.4.1).
	rct := 1 + int(math.Ceil(alphaExp/h))
	// APT: window W = 1024 for binary; cutoff is the smallest C with
	// P[Binomial(W, 2^-H) >= C] <= 2^-20; 90B provides the closed form
	// via the normal approximation — we compute it directly.
	const w = 1024
	p := math.Pow(2, -h)
	mu := float64(w) * p
	sigma := math.Sqrt(float64(w) * p * (1 - p))
	// One-sided 2^-20 quantile of the normal approximation ≈ 5.36 σ.
	apt := int(math.Ceil(mu + 5.36*sigma))
	if apt > w {
		apt = w
	}
	return &Health{
		rctCutoff: rct,
		aptCutoff: apt,
		aptWindow: w,
	}, nil
}

// Feed processes one raw bit and reports whether it triggered a health
// failure. Failures are counted but do not latch: the caller decides
// whether to disable the source.
func (h *Health) Feed(bit bool) (ok bool) {
	h.samples++
	ok = true

	// Repetition count test.
	if h.started && bit == h.last {
		h.runLen++
		if h.runLen >= h.rctCutoff {
			h.rctFailures++
			h.runLen = 1 // restart the run count after reporting
			ok = false
		}
	} else {
		h.runLen = 1
	}
	h.last = bit
	h.started = true

	// Adaptive proportion test: the first bit of each window is the
	// reference; count its recurrences across the window.
	if h.windowFill == 0 {
		h.ref = bit
		h.refCount = 1
		h.windowFill = 1
	} else {
		h.windowFill++
		if bit == h.ref {
			h.refCount++
			if h.refCount >= h.aptCutoff {
				h.aptFailures++
				ok = false
				h.windowFill = 0
			}
		}
		if h.windowFill >= h.aptWindow {
			h.windowFill = 0
		}
	}
	return ok
}

// Stats reports the totals so far.
func (h *Health) Stats() (samples, rctFailures, aptFailures int) {
	return h.samples, h.rctFailures, h.aptFailures
}

// Healthy reports whether no test has ever fired.
func (h *Health) Healthy() bool {
	return h.rctFailures == 0 && h.aptFailures == 0
}
