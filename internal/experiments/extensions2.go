package experiments

// Second extension group: hardware-utilization comparison including the
// temperature-aware cooperative baseline (the paper's reference [2]),
// distiller diagnostics (spatial autocorrelation + degree ablation), and
// an aging study.

import (
	"fmt"
	"slices"
	"strings"

	"ropuf/internal/baseline"
	"ropuf/internal/bits"
	"ropuf/internal/circuit"
	"ropuf/internal/core"
	"ropuf/internal/dataset"
	"ropuf/internal/distill"
	"ropuf/internal/silicon"
)

// utilization compares how many reliable bits each scheme extracts from
// the same 512-RO budget on the environment boards: configurable (margin
// masking), traditional with a worst-case threshold, cooperative
// (multi-corner enrollment) and 1-out-of-8.
func (r *Runner) utilization() (string, error) {
	ds, err := r.VT()
	if err != nil {
		return "", err
	}
	var b strings.Builder

	env := ds.EnvBoards()
	sweep := dataset.VoltageSweep()
	const n = 5
	type row struct {
		name  string
		bits  float64
		flips float64
	}
	var rows []row
	boards := 0

	addRow := func(name string, bitsPerBoard, flipsPct float64) {
		for i := range rows {
			if rows[i].name == name {
				rows[i].bits += bitsPerBoard
				rows[i].flips += flipsPct
				return
			}
		}
		rows = append(rows, row{name, bitsPerBoard, flipsPct})
	}

	for _, board := range env {
		boards++
		delays, ref, err := sweepDelays(board, n, sweep)
		if err != nil {
			return "", err
		}
		nominal := delays[ref]

		// Configurable Case-2 with margin masking at a threshold scaled to
		// the board's noise (60 ps, ~the voltage-induced perturbation).
		pairs, err := groupPairs(nominal, n)
		if err != nil {
			return "", err
		}
		conf, err := core.Enroll(pairs, core.Case2, 60, core.Options{})
		if err != nil {
			return "", err
		}
		confFlips, err := flipPercent(conf.Response, func(d []float64) (*bits.Stream, error) {
			p, err := groupPairs(d, n)
			if err != nil {
				return nil, err
			}
			return conf.Evaluate(p)
		}, delays, ref)
		if err != nil {
			return "", err
		}
		addRow("configurable Case-2 (margin mask)", float64(conf.NumBits()), confFlips)

		// Traditional with a worst-case threshold chosen to match the
		// configurable bit reliability (120 ps).
		trad, err := baseline.EnrollTraditional(nominal, 120)
		if err != nil {
			return "", err
		}
		tradFlips, err := flipPercent(trad.Response, trad.Evaluate, delays, ref)
		if err != nil {
			return "", err
		}
		addRow("traditional (worst-case Rth)", float64(trad.Response.Len()), tradFlips)

		// Cooperative: multi-corner enrollment keeps the pairs stable at
		// every corner. It takes the nominal corner first; the order of
		// the others does not matter.
		corners := slices.Clone(delays)
		corners[0], corners[ref] = corners[ref], corners[0]
		coop, err := baseline.EnrollCooperative(corners)
		if err != nil {
			return "", err
		}
		coopFlips, err := flipPercent(coop.Response, coop.Evaluate, delays, ref)
		if err != nil {
			return "", err
		}
		addRow("cooperative (multi-corner, ref [2])", float64(coop.Response.Len()), coopFlips)

		// 1-out-of-8.
		oo8, err := baseline.EnrollOneOutOf8(nominal)
		if err != nil {
			return "", err
		}
		oo8Flips, err := flipPercent(oo8.Response, oo8.Evaluate, delays, ref)
		if err != nil {
			return "", err
		}
		addRow("1-out-of-8", float64(oo8.Response.Len()), oo8Flips)
	}

	const budgetROs = 480 // 2·n·48 for n = 5
	fmt.Fprintf(&b, "%d environment boards, %d-RO budget each; flips over the voltage sweep.\n\n", boards, budgetROs)
	fmt.Fprintf(&b, "%-38s %12s %12s %14s\n", "scheme", "bits/board", "flip rate", "bits/100 ROs")
	for _, row := range rows {
		perBoard := row.bits / float64(boards)
		fmt.Fprintf(&b, "%-38s %12.1f %11.2f%% %14.1f\n",
			row.name, perBoard, row.flips/float64(boards), 100*perBoard/budgetROs)
	}
	fmt.Fprintf(&b, `
Reading: with zero-flip reliability required, the contenders are the
configurable PUF, the cooperative scheme and (nearly) 1-out-of-8. The
configurable row is accounted at RO granularity (each "inverter" of a
5-stage ring is a whole RO, 10 ROs per bit) because the public-dataset
experiments must treat ROs as inverters; in the real inverter-level design
a configured ring costs roughly one RO of area, i.e. ~2 RO-equivalents per
bit — the Table V accounting under which it ties traditional and beats
1-out-of-8 by 4x. The cooperative scheme reaches the highest RO-granularity
yield but needs multi-corner enrollment measurements (in hardware,
temperature sensors — the cost the paper's approach avoids).
`)
	return b.String(), nil
}

// distiller regenerates the distiller's effect directly: spatial
// autocorrelation (Moran's I) of the per-RO periods before and after
// distillation, and the NIST pass count as a function of polynomial degree.
func (r *Runner) distiller() (string, error) {
	boards, err := r.paperBoards()
	if err != nil {
		return "", err
	}
	var b strings.Builder

	// Moran's I on a sample of boards, raw vs degree-2 residuals.
	const neighbourRadius = 2.0
	var rawI, resI float64
	const sample = 10
	for _, board := range boards[:sample] {
		periods, err := boardDelays(board, dataset.NominalCondition, raw)
		if err != nil {
			return "", err
		}
		iRaw, err := distill.MoransI(board.X, board.Y, periods, neighbourRadius)
		if err != nil {
			return "", err
		}
		res, err := boardDelays(board, dataset.NominalCondition, distillerDegree)
		if err != nil {
			return "", err
		}
		iRes, err := distill.MoransI(board.X, board.Y, res, neighbourRadius)
		if err != nil {
			return "", err
		}
		rawI += iRaw
		resI += iRes
	}
	fmt.Fprintf(&b, "Moran's I (radius %.0f, mean over %d boards): raw %.3f -> distilled %.3f\n",
		neighbourRadius, sample, rawI/sample, resI/sample)
	fmt.Fprintf(&b, "(null expectation for 512 samples: %.4f)\n\n", distill.ExpectedMoransINull(512))

	// Degree ablation: NIST pass rows per distiller degree.
	fmt.Fprintf(&b, "%-10s %18s %14s\n", "degree", "NIST rows passing", "all pass?")
	for degree := 0; degree <= 4; degree++ {
		streams, err := r.pufStreams(core.Case1, degree)
		if err != nil {
			return "", err
		}
		rep, passRows, err := nistShort(streams)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-10d %13d of %2d %14v\n", degree, passRows, len(rep.Rows), rep.AllPass())
	}
	fmt.Fprintf(&b, "\nReading: the raw data's spatial autocorrelation is what fails NIST; a\ndegree-2 surface already removes it (higher degrees buy nothing), matching\nthe regression-distiller design of the paper's reference [18].\n")
	return b.String(), nil
}

// aging studies bit stability over device lifetime: enroll at t=0, then
// regenerate after 1..15 years of continuous oscillation, comparing the
// configurable PUF against the traditional PUF on the same rings.
func (r *Runner) aging() (string, error) {
	boards, err := r.InHouse()
	if err != nil {
		return "", err
	}
	var b strings.Builder

	years := []float64{1, 2, 5, 10, 15}
	fmt.Fprintf(&b, "%-28s", "flipped positions (%)")
	for _, y := range years {
		fmt.Fprintf(&b, "%9s", fmt.Sprintf("%.0fy", y))
	}
	b.WriteString("\n")

	// Aged per-stage ddiffs and full-ring delays, computed from ground
	// truth (aging drift dwarfs measurement noise).
	agedPairs := func(board *dataset.InHouseBoard, a silicon.Aging) ([]core.Pair, error) {
		pairs := make([]core.Pair, 0, board.NumPairs())
		for i := 0; i+1 < len(board.Rings); i += 2 {
			alpha, err := board.Rings[i].AgedTrueDdiffsPS(silicon.Nominal, a)
			if err != nil {
				return nil, err
			}
			beta, err := board.Rings[i+1].AgedTrueDdiffsPS(silicon.Nominal, a)
			if err != nil {
				return nil, err
			}
			pairs = append(pairs, core.Pair{Alpha: alpha, Beta: beta})
		}
		return pairs, nil
	}
	agedFullRingDelays := func(board *dataset.InHouseBoard, a silicon.Aging) ([]float64, error) {
		out := make([]float64, len(board.Rings))
		for i, ring := range board.Rings {
			d, err := ring.AgedHalfPeriodPS(circuit.AllSelected(ring.NumStages()), silicon.Nominal, a)
			if err != nil {
				return nil, err
			}
			out[i] = d
		}
		return out, nil
	}

	for _, scheme := range []string{"configurable Case-2", "configurable Case-1", "traditional"} {
		fmt.Fprintf(&b, "%-28s", scheme)
		for _, y := range years {
			stress := silicon.Aging{Years: y, Activity: 1}
			flipped, total := 0, 0
			for _, board := range boards {
				fresh := silicon.Aging{}
				var enrolled, regen *bits.Stream
				switch scheme {
				case "traditional":
					delays, err := agedFullRingDelays(board, fresh)
					if err != nil {
						return "", err
					}
					enr, err := baseline.EnrollTraditional(delays, 0)
					if err != nil {
						return "", err
					}
					aged, err := agedFullRingDelays(board, stress)
					if err != nil {
						return "", err
					}
					if regen, err = enr.Evaluate(aged); err != nil {
						return "", err
					}
					enrolled = enr.Response
				default:
					mode := core.Case2
					if scheme == "configurable Case-1" {
						mode = core.Case1
					}
					pairs, err := agedPairs(board, fresh)
					if err != nil {
						return "", err
					}
					enr, err := core.Enroll(pairs, mode, 0, core.Options{})
					if err != nil {
						return "", err
					}
					aged, err := agedPairs(board, stress)
					if err != nil {
						return "", err
					}
					if regen, err = enr.Evaluate(aged); err != nil {
						return "", err
					}
					enrolled = enr.Response
				}
				d, err := bits.HammingDistance(regen, enrolled)
				if err != nil {
					return "", err
				}
				flipped += d
				total += regen.Len()
			}
			fmt.Fprintf(&b, "%8.2f%%", 100*float64(flipped)/float64(total))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "\nReading: per-device aging spread erodes small margins first, so the\ntraditional PUF degrades years earlier than the margin-maximized\nconfigurable PUF (Case-2's larger margins buy the most headroom).\n")
	return b.String(), nil
}
