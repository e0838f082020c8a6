package fleet

import (
	"fmt"

	"ropuf/internal/core"
	"ropuf/internal/rngx"
)

// Synthetic fabricates a deterministic fleet of devices with per-stage
// delay vectors drawn from the same regime as the in-house dataset
// (~200 ps stage delays with ~5 ps process spread). Device d's
// measurements depend only on (seed, d), so fleets are reproducible and
// individual devices can be re-fabricated in isolation. Each device's
// delays come from one rngx.NormFill, so a fleet is bit-identical to one
// NormMeanStd call per delay.
func Synthetic(numDevices, pairsPerDevice, stages int, seed uint64) ([]Device, error) {
	if numDevices <= 0 || pairsPerDevice <= 0 || stages <= 0 {
		return nil, fmt.Errorf("fleet: Synthetic(%d devices, %d pairs, %d stages): all must be positive",
			numDevices, pairsPerDevice, stages)
	}
	devices := make([]Device, numDevices)
	// Per-pair draws are interleaved (α₀, β₀, α₁, β₁, …) for historical
	// stream compatibility: drawing a whole device into buf and
	// de-interleaving each pair consumes the RNG in exactly that order.
	buf := make([]float64, 2*stages*pairsPerDevice)
	for d := range devices {
		r := deviceRNG(seed, d)
		r.NormFill(buf, 200, 5)
		pairs := make([]core.Pair, pairsPerDevice)
		backing := make([]float64, len(buf))
		for p := range pairs {
			drawn := buf[2*stages*p : 2*stages*(p+1)]
			alpha := backing[2*stages*p : 2*stages*p+stages : 2*stages*p+stages]
			beta := backing[2*stages*p+stages : 2*stages*(p+1) : 2*stages*(p+1)]
			for s := 0; s < stages; s++ {
				alpha[s] = drawn[2*s]
				beta[s] = drawn[2*s+1]
			}
			pairs[p] = core.Pair{Alpha: alpha, Beta: beta}
		}
		devices[d] = Device{ID: fmt.Sprintf("dev-%04d", d), Pairs: pairs}
	}
	return devices, nil
}

// Remeasure returns a fresh noisy measurement of a device's pairs: every
// stage delay is perturbed by zero-mean Gaussian noise of sigmaPS
// picoseconds RMS, modeling measurement error and environmental drift
// between enrollment and a later authentication. The noise of the whole
// device comes from one rngx.NormFill: α₀'s stages, then β₀'s, then α₁'s,
// and so on, bit-identical to one NormMeanStd call per stage in that
// order.
func Remeasure(d Device, sigmaPS float64, seed uint64) []core.Pair {
	r := rngx.New(seed).Split()
	out := make([]core.Pair, len(d.Pairs))
	total := 0
	for _, pair := range d.Pairs {
		total += len(pair.Alpha) + len(pair.Beta)
	}
	// One backing array for the whole device; each pair's vectors are
	// carved from it with full-slice expressions so they stay independent.
	backing := make([]float64, total)
	r.NormFill(backing, 0, sigmaPS)
	next := 0
	carve := func(n int) []float64 {
		s := backing[next : next+n : next+n]
		next += n
		return s
	}
	for p, pair := range d.Pairs {
		// Adding the enrolled value to its drawn perturbation keeps the
		// result bit-identical to perturbing each stage in turn.
		alpha := carve(len(pair.Alpha))
		for i, v := range pair.Alpha {
			alpha[i] += v
		}
		beta := carve(len(pair.Beta))
		for i, v := range pair.Beta {
			beta[i] += v
		}
		out[p] = core.Pair{Alpha: alpha, Beta: beta}
	}
	return out
}

// deviceRNG derives an independent deterministic stream for one device.
func deviceRNG(seed uint64, device int) *rngx.RNG {
	// Mix the device index in with a large odd multiplier so nearby
	// devices land in unrelated regions of the seed space.
	return rngx.New(seed + 0x9e3779b97f4a7c15*uint64(device+1))
}
