package experiments

// Fourth extension group: the RO-jitter TRNG (the abstract's "random
// number generation" application) and placement-aware pairing strategies
// (an alternative to the distiller for suppressing systematic variation).

import (
	"fmt"
	"strings"

	"ropuf/internal/bits"
	"ropuf/internal/circuit"
	"ropuf/internal/core"
	"ropuf/internal/dataset"
	"ropuf/internal/entropy"
	"ropuf/internal/metrics"
	"ropuf/internal/nist"
	"ropuf/internal/rngx"
	"ropuf/internal/silicon"
	"ropuf/internal/trng"
)

// trng sweeps the jitter-to-period ratio of a ring-oscillator TRNG and
// reports bit quality raw and after conditioning.
func (r *Runner) trng() (string, error) {
	var b strings.Builder

	die, err := silicon.NewDie(silicon.DefaultParams(), 8, 8, rngx.New(0x54524e47)) // "TRNG"
	if err != nil {
		return "", err
	}
	ring, err := circuit.NewBuilder(die).BuildRing(5, circuit.DefaultMuxScale, circuit.DefaultWireScale)
	if err != nil {
		return "", err
	}
	cfg := circuit.AllSelected(5)

	const sample = 1e7 // 10 µs sampling clock
	const rawBits = 16384
	fmt.Fprintf(&b, "5-stage ring, %.0f µs sampling clock, %d raw bits per row.\n\n", sample/1e6, rawBits)
	fmt.Fprintf(&b, "%12s %12s %10s %12s %14s %12s\n",
		"jitter/cyc", "sigma/period", "raw bias", "raw minH", "NIST fails raw", "minH xor8")
	for _, jitter := range []float64{0.5, 2, 10, 40, 120} {
		g, err := trng.New(ring, cfg, silicon.Nominal, sample, jitter, rngx.New(uint64(jitter*1000)))
		if err != nil {
			return "", err
		}
		raw := g.Bits(rawBits)
		bias := float64(raw.OnesCount())/float64(raw.Len()) - 0.5
		est, err := entropy.MinEntropyPerBit(raw)
		if err != nil {
			return "", err
		}
		results, err := nist.RunAll(raw, nist.ShortSuite(raw.Len()))
		if err != nil {
			return "", err
		}
		fails := 0
		for _, res := range results {
			for _, pv := range res.PVs {
				if !pv.Pass() {
					fails++
				}
			}
		}
		folded, err := trng.XORFold(raw, 8)
		if err != nil {
			return "", err
		}
		festEst, err := entropy.MinEntropyPerBit(folded)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%9.1f ps %12.3f %10.4f %12.3f %14d %12.3f\n",
			jitter, g.AccumulatedSigmaPS()/g.PeriodPS(), bias, est.Min, fails, festEst.Min)
	}
	fmt.Fprintf(&b, "\nReading: entropy turns on once the jitter accumulated per sample\napproaches the ring period; below that, raw bits are structured and even\n8-fold XOR compression cannot fully repair them — sampling slower (or a\nnoisier ring) is the honest fix, as TRNG practice prescribes.\n")
	return b.String(), nil
}

// pairingStrategy maps a board's RO delays into PUF pairs under a physical
// pairing discipline.
type pairingStrategy struct {
	name string
	// pick returns the RO indices of pair p's top and bottom rings for
	// n-stage rings.
	pick func(p, n int) (top, bottom []int)
}

func pairingStrategies() []pairingStrategy {
	return []pairingStrategy{
		{
			// The paper's layout: 2n consecutive ROs, first n top.
			name: "adjacent blocks",
			pick: func(p, n int) ([]int, []int) {
				base := p * 2 * n
				top := make([]int, n)
				bottom := make([]int, n)
				for i := 0; i < n; i++ {
					top[i] = base + i
					bottom[i] = base + n + i
				}
				return top, bottom
			},
		},
		{
			// Interleaved: alternating ROs. Looks balanced but gives every
			// stage the SAME one-placement-step gradient offset (the bottom
			// RO always sits one step after the top), so the systematic
			// gradient adds coherently across stages and pairs.
			name: "interleaved",
			pick: func(p, n int) ([]int, []int) {
				base := p * 2 * n
				top := make([]int, n)
				bottom := make([]int, n)
				for i := 0; i < n; i++ {
					top[i] = base + 2*i
					bottom[i] = base + 2*i + 1
				}
				return top, bottom
			},
		},
		{
			// Common-centroid (ABBA): cancels linear gradients exactly.
			name: "common-centroid",
			pick: func(p, n int) ([]int, []int) {
				base := p * 2 * n
				top := make([]int, 0, n)
				bottom := make([]int, 0, n)
				for i := 0; i < 2*n; i++ {
					switch i % 4 {
					case 0, 3:
						if len(top) < n {
							top = append(top, base+i)
						} else {
							bottom = append(bottom, base+i)
						}
					default:
						if len(bottom) < n {
							bottom = append(bottom, base+i)
						} else {
							top = append(top, base+i)
						}
					}
				}
				return top, bottom
			},
		},
	}
}

// pairing compares physical pairing disciplines on RAW (undistilled) data:
// smarter layouts suppress systematic variation at enrollment time, doing
// part of the distiller's job for free.
func (r *Runner) pairing() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Raw (undistilled) periods, n=%d rings, Case-1 selection, 97 x 96-bit streams.\n\n", streamRingLen)
	fmt.Fprintf(&b, "%-18s %12s %14s %16s\n", "pairing", "bit bias", "NIST rows pass", "uniqueness %")
	for _, strat := range pairingStrategies() {
		streams, err := r.boardStreams(func(board *dataset.Board) (*bits.Stream, error) {
			periods, err := board.PeriodsPS(dataset.NominalCondition)
			if err != nil {
				return nil, err
			}
			numPairs, _, err := dataset.GroupBitsPerBoard(len(periods), streamRingLen)
			if err != nil {
				return nil, err
			}
			pairs := make([]core.Pair, numPairs)
			for p := 0; p < numPairs; p++ {
				ti, bi := strat.pick(p, streamRingLen)
				alpha := make([]float64, streamRingLen)
				beta := make([]float64, streamRingLen)
				for i := 0; i < streamRingLen; i++ {
					alpha[i] = periods[ti[i]]
					beta[i] = periods[bi[i]]
				}
				pairs[p] = core.Pair{Alpha: alpha, Beta: beta}
			}
			enr, err := core.Enroll(pairs, core.Case1, 0, core.Options{})
			if err != nil {
				return nil, err
			}
			return enr.Response, nil
		})
		if err != nil {
			return "", err
		}
		corpus := bits.Concat(streams...)
		bias := float64(corpus.OnesCount())/float64(corpus.Len()) - 0.5
		rep, passRows, err := nistShort(streams)
		if err != nil {
			return "", err
		}
		hd, err := metrics.ComputeInterChipHD(streams)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-18s %+12.4f %8d of %2d %15.1f%%\n",
			strat.name, bias, passRows, len(rep.Rows), hd.UniquenessPercent())
	}
	fmt.Fprintf(&b, "\nReading: layout choices matter as much as post-processing. Naive\ninterleaving is a trap — the bottom RO always sits one placement step after\nthe top, so a gradient biases every stage the same way and the bits fail\nNIST even harder than adjacent blocks. Common-centroid (ABBA) pairing\ncancels linear gradients exactly and passes every NIST row on RAW data —\na layout-time complement to the regression distiller, which then only has\nsurface curvature left to remove.\n")
	return b.String(), nil
}
