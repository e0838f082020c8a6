// Package metrics computes the standard PUF quality figures of merit used
// throughout the paper's evaluation: inter-chip Hamming distance
// (uniqueness, Fig. 3), intra-chip bit flips (reliability, Figs. 4–5), and
// the hardware-utilization accounting behind Table V.
package metrics

import (
	"errors"
	"fmt"

	"ropuf/internal/bits"
	"ropuf/internal/stats"
)

// InterChipHD summarizes the pairwise Hamming distances of a set of
// equal-length responses from different chips.
type InterChipHD struct {
	NumResponses int
	BitsPerResp  int
	NumPairs     int
	Mean, Std    float64
	// Hist counts pairs by Hamming distance.
	Hist *stats.IntHistogram
}

// ComputeInterChipHD evaluates all pairwise distances. At least two
// responses of identical length are required.
func ComputeInterChipHD(responses []*bits.Stream) (*InterChipHD, error) {
	if len(responses) < 2 {
		return nil, errors.New("metrics: inter-chip HD needs at least two responses")
	}
	n := responses[0].Len()
	for i, r := range responses {
		if r.Len() != n {
			return nil, fmt.Errorf("metrics: response %d has %d bits, want %d", i, r.Len(), n)
		}
	}
	out := &InterChipHD{
		NumResponses: len(responses),
		BitsPerResp:  n,
		Hist:         stats.NewIntHistogram(),
	}
	var dists []float64
	for i := 0; i < len(responses); i++ {
		for j := i + 1; j < len(responses); j++ {
			d := bits.MustHammingDistance(responses[i], responses[j])
			out.Hist.Add(d)
			dists = append(dists, float64(d))
		}
	}
	out.NumPairs = len(dists)
	out.Mean = stats.Mean(dists)
	out.Std = stats.StdDev(dists)
	return out, nil
}

// UniquenessPercent returns the mean inter-chip HD as a percentage of the
// response length (ideal: 50%).
func (h *InterChipHD) UniquenessPercent() float64 {
	if h.BitsPerResp == 0 {
		return 0
	}
	return 100 * h.Mean / float64(h.BitsPerResp)
}

// Reliability summarizes regeneration fidelity against an enrolled
// response over one or more re-measurements.
type Reliability struct {
	TotalBits int // enrolled bits × number of re-measurements
	Flips     int // positions differing from enrollment, summed
	// FlippedPositions counts bit positions that flipped in at least one
	// re-measurement (the paper's Fig. 4 metric).
	FlippedPositions int
	NumBits          int // enrolled response length
}

// ComputeReliability compares the enrolled response against each
// regenerated response.
func ComputeReliability(enrolled *bits.Stream, regenerated []*bits.Stream) (*Reliability, error) {
	if enrolled == nil || enrolled.Len() == 0 {
		return nil, errors.New("metrics: empty enrolled response")
	}
	r := &Reliability{NumBits: enrolled.Len()}
	flipped := make([]bool, enrolled.Len())
	for i, g := range regenerated {
		if g.Len() != enrolled.Len() {
			return nil, fmt.Errorf("metrics: regeneration %d has %d bits, want %d", i, g.Len(), enrolled.Len())
		}
		for b := 0; b < g.Len(); b++ {
			if g.Bit(b) != enrolled.Bit(b) {
				r.Flips++
				flipped[b] = true
			}
		}
		r.TotalBits += g.Len()
	}
	for _, f := range flipped {
		if f {
			r.FlippedPositions++
		}
	}
	return r, nil
}

// FlippedPositionPercent returns the percentage of enrolled bit positions
// that flipped in at least one re-measurement — the quantity plotted in the
// paper's Fig. 4.
func (r *Reliability) FlippedPositionPercent() float64 {
	if r.NumBits == 0 {
		return 0
	}
	return 100 * float64(r.FlippedPositions) / float64(r.NumBits)
}

// HardwareUtilization compares bit yield per RO budget across schemes:
// utilization = bits / (ROs consumed / 2), i.e. relative to the ideal
// one-bit-per-RO-pair scheme.
func HardwareUtilization(bitsGenerated, rosConsumed int) (float64, error) {
	if rosConsumed <= 0 {
		return 0, fmt.Errorf("metrics: rosConsumed must be positive, got %d", rosConsumed)
	}
	if bitsGenerated < 0 {
		return 0, fmt.Errorf("metrics: bitsGenerated must be non-negative, got %d", bitsGenerated)
	}
	return float64(bitsGenerated) / (float64(rosConsumed) / 2), nil
}
