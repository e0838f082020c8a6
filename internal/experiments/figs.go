package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"ropuf/internal/baseline"
	"ropuf/internal/bits"
	"ropuf/internal/core"
	"ropuf/internal/dataset"
	"ropuf/internal/fleet"
	"ropuf/internal/metrics"
)

// fig3 reproduces Fig. 3: histograms of pairwise inter-chip Hamming
// distance of the 97 96-bit PUF output streams, for Case-1 and Case-2.
// Paper: mean 46.88 / σ 4.89 (Case-1) and 46.79 / 4.95 (Case-2).
func (r *Runner) fig3() (string, error) {
	var b strings.Builder
	for _, mode := range []core.Mode{core.Case1, core.Case2} {
		streams, err := r.pufStreams(mode, distillerDegree)
		if err != nil {
			return "", err
		}
		hd, err := metrics.ComputeInterChipHD(streams)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%s: %d streams x %d bits, %d pairs\n",
			mode, hd.NumResponses, hd.BitsPerResp, hd.NumPairs)
		fmt.Fprintf(&b, "mean HD = %.2f bits, std = %.2f bits (uniqueness %.1f%%, ideal 50%%)\n",
			hd.Mean, hd.Std, hd.UniquenessPercent())
		fmt.Fprintf(&b, "%6s %8s\n", "HD", "pairs")
		for _, k := range hd.Hist.Keys() {
			fmt.Fprintf(&b, "%6d %8d %s\n", k, hd.Hist.Counts[k],
				strings.Repeat("#", hd.Hist.Counts[k]*60/maxCount(hd.Hist.Counts)))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "Paper: Case-1 mean 46.88 / std 4.89; Case-2 mean 46.79 / std 4.95; bell-shaped.\n")
	return b.String(), nil
}

func maxCount(m map[int]int) int {
	max := 1
	for _, v := range m {
		if v > max {
			max = v
		}
	}
	return max
}

// reliabilityBars is one Fig. 4/5 cell: the percentage of bit positions
// that flip at any non-nominal sweep condition against the nominal
// regeneration, for the configurable PUF enrolled at each sweep condition
// (in sweep order), the traditional PUF and the 1-out-of-8 PUF.
type reliabilityBars struct {
	Configurable []float64
	Traditional  float64
	OneOutOf8    float64
}

// mid is the configurable PUF enrolled at the sweep's middle condition,
// the paper's best enrollment point.
func (c reliabilityBars) mid() float64 { return c.Configurable[len(c.Configurable)/2] }

// render writes the cell's bars, the configurable ones first and set off
// from the two baselines by a bar.
func (c reliabilityBars) render(b *strings.Builder) {
	for _, v := range c.Configurable {
		fmt.Fprintf(b, "%6.2f", v)
	}
	fmt.Fprintf(b, " |%6.2f%6.2f", c.Traditional, c.OneOutOf8)
}

// ringLens are the ring lengths of the paper's Table V columns and of each
// board's Fig. 4/5 cells.
var ringLens = []int{3, 5, 7, 9}

// reliabilityGrid computes the Fig. 4/5 cell of every environment board of
// ds (cells[board]) at every ring length of ns (cells[board][n]), and
// their mean.
func reliabilityGrid(ds *dataset.Dataset, ns []int, mode core.Mode, sweep []dataset.Condition) (cells [][]reliabilityBars, mean reliabilityBars, err error) {
	env := ds.EnvBoards()
	if len(env) == 0 {
		return nil, mean, fmt.Errorf("experiments: dataset has no environment boards")
	}
	cells = make([][]reliabilityBars, len(env))
	mean.Configurable = make([]float64, len(sweep))
	for bi, board := range env {
		cells[bi] = make([]reliabilityBars, len(ns))
		for ni, n := range ns {
			c, err := reliabilityCell(board, n, mode, sweep)
			if err != nil {
				return nil, mean, fmt.Errorf("experiments: board %d n=%d: %w", board.ID, n, err)
			}
			for i, v := range c.Configurable {
				mean.Configurable[i] += v
			}
			mean.Traditional += c.Traditional
			mean.OneOutOf8 += c.OneOutOf8
			cells[bi][ni] = c
		}
	}
	k := float64(len(env) * len(ns))
	for i := range mean.Configurable {
		mean.Configurable[i] /= k
	}
	mean.Traditional /= k
	mean.OneOutOf8 /= k
	return cells, mean, nil
}

// reliabilityCell computes one environment board's Fig. 4/5 cell for ring
// length n. The traditional and 1-out-of-8 PUFs consume the configurable
// PUF's RO budget: the first 2·n·pairs ROs, paired consecutively for
// traditional, in groups of 8 for 1-out-of-8. Reliability uses physical
// measurements; the distiller only serves randomness extraction.
func reliabilityCell(b *dataset.Board, n int, mode core.Mode, sweep []dataset.Condition) (reliabilityBars, error) {
	var cell reliabilityBars
	delays, ref, err := sweepDelays(b, n, sweep)
	if err != nil {
		return cell, err
	}

	// Configurable PUF: one bar per configuration condition. The sweep's
	// enrollments are one fleet batch — each configuration condition is a
	// "device" enrolled and evaluated concurrently, compared against its
	// own regeneration at the nominal condition.
	envs := make([][]core.Pair, len(sweep))
	devices := make([]fleet.Device, len(sweep))
	for i, c := range sweep {
		if envs[i], err = groupPairs(delays[i], n); err != nil {
			return cell, err
		}
		devices[i] = fleet.Device{ID: c.String(), Pairs: envs[i]}
	}
	enrollRep, err := fleet.Enroll(context.Background(), devices, fleet.Options{Mode: mode})
	if err != nil {
		return cell, err
	}
	jobs := make([]fleet.EvalJob, len(sweep))
	for i, res := range enrollRep.Results {
		if res.Err != nil {
			return cell, res.Err
		}
		jobs[i] = fleet.EvalJob{ID: res.ID, Enrollment: res.Enrollment, Envs: envs, RefEnv: ref}
	}
	evalRep, err := fleet.Evaluate(context.Background(), jobs, fleet.Options{})
	if err != nil {
		return cell, err
	}
	for _, res := range evalRep.Results {
		if res.Err != nil {
			return cell, res.Err
		}
		cell.Configurable = append(cell.Configurable, res.Reliability.FlippedPositionPercent())
	}

	trad, err := baseline.EnrollTraditional(delays[ref], 0)
	if err != nil {
		return cell, err
	}
	if cell.Traditional, err = flipPercent(trad.Response, trad.Evaluate, delays, ref); err != nil {
		return cell, err
	}
	oo8, err := baseline.EnrollOneOutOf8(delays[ref])
	if err != nil {
		return cell, err
	}
	cell.OneOutOf8, err = flipPercent(oo8.Response, oo8.Evaluate, delays, ref)
	return cell, err
}

// sweepDelays returns a board's per-RO periods at each condition of sweep,
// in sweep order, cut to the ROs that n-stage pairs consume, and the index
// of the nominal condition.
func sweepDelays(b *dataset.Board, n int, sweep []dataset.Condition) (delays [][]float64, ref int, err error) {
	ref = slices.Index(sweep, dataset.NominalCondition)
	if ref < 0 {
		return nil, 0, fmt.Errorf("experiments: sweep %v lacks the nominal condition", condLabels(sweep))
	}
	numPairs, _, err := dataset.GroupBitsPerBoard(b.NumROs(), n)
	if err != nil {
		return nil, 0, err
	}
	delays = make([][]float64, len(sweep))
	for i, c := range sweep {
		d, err := b.PeriodsPS(c)
		if err != nil {
			return nil, 0, err
		}
		delays[i] = d[:2*n*numPairs]
	}
	return delays, ref, nil
}

// flipPercent regenerates an enrolled response from every entry of delays
// but the reference one, and returns the percentage of its bit positions
// that flip in at least one regeneration.
func flipPercent(enrolled *bits.Stream, eval func([]float64) (*bits.Stream, error), delays [][]float64, ref int) (float64, error) {
	regen := make([]*bits.Stream, 0, len(delays)-1)
	for i, d := range delays {
		if i == ref {
			continue
		}
		resp, err := eval(d)
		if err != nil {
			return 0, err
		}
		regen = append(regen, resp)
	}
	rel, err := metrics.ComputeReliability(enrolled, regen)
	if err != nil {
		return 0, err
	}
	return rel.FlippedPositionPercent(), nil
}

// reliabilityFigure renders a Fig. 4/5-style grid: five environment boards
// (rows) × four ring lengths (columns), seven bars per cell.
func (r *Runner) reliabilityFigure(sweep []dataset.Condition, mode core.Mode) (string, error) {
	ds, err := r.VT()
	if err != nil {
		return "", err
	}
	cells, mean, err := reliabilityGrid(ds, ringLens, mode, sweep)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Bars per cell: configurable PUF (%s) enrolled at each sweep condition", mode)
	fmt.Fprintf(&b, " %v,\nthen traditional PUF, then 1-out-of-8 PUF. Values are %% of bit positions that\nflip at any non-nominal condition.\n\n", condLabels(sweep))
	for bi, board := range ds.EnvBoards() {
		fmt.Fprintf(&b, "Board %d:\n", board.ID)
		for ni, n := range ringLens {
			fmt.Fprintf(&b, "  n=%d: ", n)
			cells[bi][ni].render(&b)
			b.WriteString("\n")
		}
	}
	fmt.Fprintf(&b, "\nMean over all boards and n:\n  ")
	mean.render(&b)
	b.WriteString("\n")
	fmt.Fprintf(&b, "\nPaper observations: traditional bar tallest; 1-out-of-8 bar zero; configurable\nbars shrink as n grows (0%% by n=7); mid-sweep enrollment condition is best.\n")
	return b.String(), nil
}

func condLabels(cs []dataset.Condition) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.String()
	}
	return out
}
