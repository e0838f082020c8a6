package experiments

import (
	"fmt"

	"ropuf/internal/core"
	"ropuf/internal/dataset"
	"ropuf/internal/metrics"
)

// Check is one verifiable reproduction claim.
type Check struct {
	Name string
	OK   bool
	Got  string
}

// Verify runs the headline assertions of the reproduction end-to-end and
// returns one Check per claim, each computed by the helper its report
// renders from. cmd/ropuf's "verify"
// subcommand exits non-zero if any fails, making this the repository's CI
// gate.
func (r *Runner) Verify() ([]Check, error) {
	var checks []Check
	add := func(name string, ok bool, format string, args ...any) {
		checks = append(checks, Check{Name: name, OK: ok, Got: fmt.Sprintf(format, args...)})
	}

	// 1. Raw streams fail NIST; distilled pass (Tables I/II).
	rawStreams, err := r.pufStreams(core.Case1, raw)
	if err != nil {
		return nil, err
	}
	rawRep, _, err := nistShort(rawStreams)
	if err != nil {
		return nil, err
	}
	add("raw bits fail NIST", !rawRep.AllPass(), "allPass=%v", rawRep.AllPass())

	distStreams, err := r.pufStreams(core.Case1, distillerDegree)
	if err != nil {
		return nil, err
	}
	distRep, _, err := nistShort(distStreams)
	if err != nil {
		return nil, err
	}
	add("distilled bits pass NIST", distRep.AllPass(), "allPass=%v", distRep.AllPass())

	// 2. Uniqueness ≈ 50% (Fig. 3).
	hd, err := metrics.ComputeInterChipHD(distStreams)
	if err != nil {
		return nil, err
	}
	u := hd.UniquenessPercent()
	add("uniqueness near 50%", u > 45 && u < 55, "%.1f%%", u)

	// 3. Reliability ordering under voltage (Fig. 4): traditional worst,
	// configurable near zero at n=7 with the mid-voltage configuration.
	ds, err := r.VT()
	if err != nil {
		return nil, err
	}
	_, n7, err := reliabilityGrid(ds, []int{7}, core.Case1, dataset.VoltageSweep())
	if err != nil {
		return nil, err
	}
	add("configurable n=7 mid-voltage 0% flips", n7.mid() == 0, "%.2f%%", n7.mid())
	add("traditional flips > 5x configurable", n7.Traditional > 5*(n7.mid()+0.1), "trad=%.2f%%", n7.Traditional)

	// 4. Table V bit accounting and 4x claim.
	conf, oo8, err := dataset.GroupBitsPerBoard(512, 5)
	if err != nil {
		return nil, err
	}
	add("Table V counts (n=5)", conf == 48 && oo8 == 12, "conf=%d oo8=%d", conf, oo8)

	// 5. Threshold retention (§IV.E): configurable Case-2 keeps all bits at
	// Rth = 3 where traditional loses more than a third.
	rows, err := r.thresholdSweep()
	if err != nil {
		return nil, err
	}
	trad, case2 := rows[0].bits[3], rows[2].bits[3] // Rth = 3
	add("Case-2 keeps 32 bits at Rth=3", case2 >= 31.5, "%.1f", case2)
	add("traditional loses >1/3 at Rth=3", trad < 22, "%.1f", trad)

	return checks, nil
}
