// Package trng implements a ring-oscillator true random number generator —
// the other security primitive the paper's abstract lists PUFs being used
// for ("secret key storage, random number generation, …"), built on the
// same configurable-ring substrate.
//
// Physical basis: a free-running ring accumulates phase jitter (thermal
// noise adds an i.i.d. timing error to every transition). Sampling the
// ring's cycle-count parity with an independent slow clock yields a bit
// whose unpredictability grows with the jitter accumulated between samples:
// once the accumulated σ exceeds about half a period, the parity is
// essentially a fair coin. With too-short sampling intervals the bits are
// strongly biased and periodic — the classic failure mode the entropy and
// NIST checks in this repository detect.
//
// The package also provides the standard light-weight conditioner, k-fold
// XOR compression.
package trng

import (
	"errors"
	"fmt"
	"math"

	"ropuf/internal/bits"
	"ropuf/internal/circuit"
	"ropuf/internal/rngx"
	"ropuf/internal/silicon"
)

// Generator samples one configurable ring's cycle parity.
type Generator struct {
	// SamplePS is the sampling clock interval in picoseconds.
	SamplePS float64
	// JitterPerCyclePS is the RMS timing noise added per oscillation
	// period (thermal jitter). FPGA ROs show a few ps per cycle.
	JitterPerCyclePS float64

	period float64 // ring period under the fixed config/env
	// phase is the ring's absolute accumulated time modulo period, in ps,
	// including all jitter so far.
	phase float64
	rng   *rngx.RNG
}

// New builds a generator from a ring under a fixed configuration and
// environment. samplePS is the sampling interval; jitterPS the per-cycle
// RMS jitter; rng drives the simulated thermal noise.
func New(r *circuit.Ring, cfg circuit.Config, env silicon.Env, samplePS, jitterPS float64, rng *rngx.RNG) (*Generator, error) {
	if samplePS <= 0 {
		return nil, fmt.Errorf("trng: sampling interval must be positive, got %g", samplePS)
	}
	if jitterPS < 0 {
		return nil, fmt.Errorf("trng: negative jitter %g", jitterPS)
	}
	if rng == nil {
		return nil, errors.New("trng: nil RNG")
	}
	period, err := r.PeriodPS(cfg, env)
	if err != nil {
		return nil, err
	}
	if samplePS < period {
		return nil, fmt.Errorf("trng: sampling interval %g ps below ring period %g ps", samplePS, period)
	}
	return &Generator{
		SamplePS:         samplePS,
		JitterPerCyclePS: jitterPS,
		period:           period,
		rng:              rng,
	}, nil
}

// PeriodPS returns the ring period the generator samples.
func (g *Generator) PeriodPS() float64 { return g.period }

// AccumulatedSigmaPS returns the RMS jitter accumulated over one sampling
// interval: σ_c·√(cycles per sample). Entropy per raw bit is high once this
// approaches period/2.
func (g *Generator) AccumulatedSigmaPS() float64 {
	cycles := g.SamplePS / g.period
	return g.JitterPerCyclePS * math.Sqrt(cycles)
}

// Bit advances one sampling interval and returns the ring's cycle-count
// parity.
func (g *Generator) Bit() bool {
	// Time advanced by the ring during this sample: nominal interval plus
	// the jitter accumulated over ~SamplePS/period cycles (Gaussian with
	// √cycles scaling — a random walk of per-cycle errors).
	jitter := g.rng.NormMeanStd(0, g.AccumulatedSigmaPS())
	g.phase += g.SamplePS + jitter
	cycles := math.Floor(g.phase / g.period)
	g.phase -= cycles * g.period
	if g.phase < 0 { // extreme negative jitter swing
		g.phase += g.period
		cycles--
	}
	return int64(cycles)%2 != 0
}

// Bits draws n raw bits.
func (g *Generator) Bits(n int) *bits.Stream {
	s := bits.New(n)
	for i := 0; i < n; i++ {
		s.Append(g.Bit())
	}
	return s
}

// XORFold compresses the stream k-to-1 by XOR-ing each group of k bits,
// multiplying the per-bit entropy (bias ε becomes ~2^(k−1)·ε^k).
func XORFold(s *bits.Stream, k int) (*bits.Stream, error) {
	if k <= 0 {
		return nil, fmt.Errorf("trng: fold factor must be positive, got %d", k)
	}
	out := bits.New(s.Len() / k)
	for i := 0; i+k <= s.Len(); i += k {
		v := false
		for j := 0; j < k; j++ {
			v = v != s.Bit(i+j)
		}
		out.Append(v)
	}
	return out, nil
}
