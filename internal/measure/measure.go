// Package measure implements the paper's §III.B inverter-delay measurement
// scheme: the delay difference ddiff of every stage in a configurable ring
// is computed from whole-ring period measurements rather than probed
// directly (a single inverter oscillates far too fast to time).
//
// The protocol generalizes the paper's 3-stage example. Let W be the ring's
// measured half-period with the all-zero (all bypass) configuration, and
// let M_i be the half-period with every stage selected except stage i.
// Then, writing A_i = M_i − W and D = Σ_j ddiff_j:
//
//	A_i = D − ddiff_i            (every ddiff contributes except stage i's)
//	Σ A_i = (n − 1) · D   ⇒   D = Σ A_i / (n − 1)
//	ddiff_i = D − A_i
//
// For n = 3 this reduces exactly to the paper's formulas
// ddiff_1 = (X+Y−Z)/2, ddiff_2 = (X+Z−Y)/2, ddiff_3 = (Y+Z−X)/2
// (the paper's X, Y, Z are our A_i re-indexed).
//
// Real measurements carry counter/jitter noise; Meter models it as additive
// Gaussian noise on each half-period observation, averaged over Repeats
// samples per configuration.
//
// Ddiffs runs the protocol incrementally: the per-stage selected/bypassed
// delays are tabulated once (O(n) device delays via
// circuit.Ring.StageDelaysPS), the all-selected loop sum is computed once,
// and each leave-one-out half-period is derived as
//
//	M_i = total − (inv_i + path1_i) + path0_i
//
// so the whole protocol costs O(n) stage evaluations instead of O(n²). The
// noise model is layered on top unchanged, drawing from the RNG in exactly
// the naive order, so measurement streams stay reproducible. The test
// oracle DdiffsNaive (equiv_test.go) keeps the direct n+1-whole-ring-
// evaluations implementation as the reference path for equivalence tests
// and benchmarks.
package measure

import (
	"fmt"

	"ropuf/internal/circuit"
	"ropuf/internal/rngx"
	"ropuf/internal/silicon"
)

// Meter measures ring periods under a fixed environment with Gaussian
// timing noise. A Meter owns a serial RNG stream plus reusable scratch
// buffers and is therefore not safe for concurrent use; give each
// goroutine its own Meter (the dataset layer already derives one per
// (board, environment)).
type Meter struct {
	// Env is the measurement environment (supply voltage, temperature).
	Env silicon.Env

	// NoisePS is the standard deviation of a single half-period
	// observation's error, in picoseconds. Frequency counters gated over
	// many cycles achieve sub-picosecond effective resolution; the default
	// in NewMeter reflects that.
	NoisePS float64

	// Repeats is how many observations are averaged per configuration.
	Repeats int

	rng *rngx.RNG

	// Scratch reused across measurements so the protocol's hot path does
	// not allocate per configuration.
	sel1, sel0, noiseBuf []float64
}

// NewMeter returns a Meter with the given environment, 0.5 ps single-shot
// noise and 5 repeats, drawing noise from rng.
func NewMeter(env silicon.Env, rng *rngx.RNG) *Meter {
	return &Meter{Env: env, NoisePS: 0.5, Repeats: 5, rng: rng}
}

// validate rejects unusable meter settings. Input validation runs before
// any truth computation so the returned error is deterministic regardless
// of ring state.
func (m *Meter) validate() error {
	if m.Repeats <= 0 {
		return fmt.Errorf("measure: Repeats must be positive, got %d", m.Repeats)
	}
	return nil
}

// noiseAvgPS draws Repeats Gaussian error samples and returns their
// average. The draw order and arithmetic are identical to the pre-batched
// implementation (Repeats sequential NormMeanStd calls summed left to
// right), so measurement streams are bit-compatible across the refactor.
func (m *Meter) noiseAvgPS() float64 {
	if cap(m.noiseBuf) < m.Repeats {
		m.noiseBuf = make([]float64, m.Repeats)
	}
	buf := m.noiseBuf[:m.Repeats]
	m.rng.NormFill(buf, 0, m.NoisePS)
	var noise float64
	for _, v := range buf {
		noise += v
	}
	return noise / float64(m.Repeats)
}

// HalfPeriodPS returns a noisy measurement of the ring's one-way loop delay
// under cfg: the true value plus the average of Repeats Gaussian error
// samples.
func (m *Meter) HalfPeriodPS(r *circuit.Ring, cfg circuit.Config) (float64, error) {
	if err := m.validate(); err != nil {
		return 0, err
	}
	truth, err := r.HalfPeriodPS(cfg, m.Env)
	if err != nil {
		return 0, err
	}
	return truth + m.noiseAvgPS(), nil
}

// Ddiffs runs the leave-one-out protocol on ring r and returns the
// estimated per-stage delay differences in picoseconds.
//
// The protocol models n+1 ring measurements — the all-zero baseline plus
// one leave-one-out configuration per stage — but evaluates them
// incrementally: per-stage selected/bypassed delays are tabulated once and
// each leave-one-out half-period is derived from the all-selected total,
// so the call is O(n) rather than O(n²) stage evaluations and performs a
// single allocation (the returned slice). Noise is drawn from the RNG in
// exactly the same order as the direct implementation (the test oracle
// DdiffsNaive); the only deviation is floating-point summation order on
// the half-period truths, bounded by a few ULPs of the loop delay. Rings
// with a single stage are measured directly (selected minus baseline).
func (m *Meter) Ddiffs(r *circuit.Ring) ([]float64, error) {
	n := r.NumStages()
	if n == 0 {
		return nil, fmt.Errorf("measure: ring has no stages")
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	if cap(m.sel1) < n {
		m.sel1 = make([]float64, n)
		m.sel0 = make([]float64, n)
	}
	sel1, sel0 := m.sel1[:n], m.sel0[:n]
	enable, err := r.StageDelaysPS(m.Env, sel1, sel0)
	if err != nil {
		return nil, err
	}
	// Left-to-right sums match the direct whole-ring evaluation order, so
	// the baseline (and the n == 1 path) are bit-identical to DdiffsNaive.
	baseline := enable
	for _, v := range sel0 {
		baseline += v
	}
	w := baseline + m.noiseAvgPS()
	if n == 1 {
		sel := (enable + sel1[0]) + m.noiseAvgPS()
		return []float64{sel - w}, nil
	}
	total := enable
	for _, v := range sel1 {
		total += v
	}
	out := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		mi := total - sel1[i] + sel0[i] + m.noiseAvgPS()
		out[i] = mi - w // A_i, rewritten to ddiff_i below
		sum += out[i]
	}
	d := sum / float64(n-1)
	for i := range out {
		out[i] = d - out[i]
	}
	return out, nil
}

// DdiffsSingleton estimates each stage's ddiff by measuring the ring with
// only that stage selected and subtracting the all-zero baseline. It uses
// the same number of measurements as Ddiffs but does not share error across
// stages; the leave-one-out protocol averages noise over n observations and
// is therefore more accurate for the *sum* structure the selection
// algorithms consume. Exposed for the measurement-ablation benchmark.
func (m *Meter) DdiffsSingleton(r *circuit.Ring) ([]float64, error) {
	n := r.NumStages()
	if n == 0 {
		return nil, fmt.Errorf("measure: ring has no stages")
	}
	baseline, err := m.HalfPeriodPS(r, circuit.NewConfig(n))
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		cfg := circuit.NewConfig(n)
		cfg[i] = true
		mi, err := m.HalfPeriodPS(r, cfg)
		if err != nil {
			return nil, err
		}
		out[i] = mi - baseline
	}
	return out, nil
}

// PairDdiffs measures both rings of a PUF pair and returns their estimated
// per-stage delay differences (alpha for the top ring, beta for the bottom
// ring), as consumed by the selection algorithms in package core.
func (m *Meter) PairDdiffs(top, bottom *circuit.Ring) (alpha, beta []float64, err error) {
	if top.NumStages() != bottom.NumStages() {
		return nil, nil, fmt.Errorf("measure: ring pair stage counts differ (%d vs %d)",
			top.NumStages(), bottom.NumStages())
	}
	alpha, err = m.Ddiffs(top)
	if err != nil {
		return nil, nil, fmt.Errorf("measure: top ring: %w", err)
	}
	beta, err = m.Ddiffs(bottom)
	if err != nil {
		return nil, nil, fmt.Errorf("measure: bottom ring: %w", err)
	}
	return alpha, beta, nil
}
