package experiments

import (
	"fmt"
	"strings"
	"testing"
)

func TestTRNGExperiment(t *testing.T) {
	res, err := sharedRunner.Run("trng")
	if err != nil {
		t.Fatal(err)
	}
	// Parse rows: jitter, sigma/period, bias, minH, fails, minH folded.
	type row struct {
		jitter, ratio, bias, minH float64
		fails                     int
		minHFold                  float64
	}
	var rows []row
	for _, l := range strings.Split(res.Text, "\n") {
		var r row
		if _, err := fmt.Sscanf(strings.TrimSpace(l), "%f ps %f %f %f %d %f",
			&r.jitter, &r.ratio, &r.bias, &r.minH, &r.fails, &r.minHFold); err == nil {
			rows = append(rows, r)
		}
	}
	if len(rows) != 5 {
		t.Fatalf("parsed %d TRNG rows, want 5", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	if first.minH > 0.6 {
		t.Errorf("low-jitter min-entropy %.3f suspiciously high", first.minH)
	}
	if last.minH < 0.85 {
		t.Errorf("high-jitter min-entropy %.3f too low", last.minH)
	}
	if last.fails > 1 {
		t.Errorf("high-jitter output failed %d NIST sub-tests", last.fails)
	}
	if first.fails < 3 {
		t.Errorf("low-jitter output passed NIST (%d fails); structure undetected", first.fails)
	}
	// Entropy must be non-decreasing in jitter (allowing small wobble).
	for i := 1; i < len(rows); i++ {
		if rows[i].minH < rows[i-1].minH-0.08 {
			t.Errorf("min-entropy dropped with more jitter: %.3f -> %.3f", rows[i-1].minH, rows[i].minH)
		}
	}
}

func TestPairingExperiment(t *testing.T) {
	res, err := sharedRunner.Run("pairing")
	if err != nil {
		t.Fatal(err)
	}
	parse := func(name string) (bias float64, pass, of int, uniq float64) {
		if _, err := fscanLine(res.Text, name+" %f %d of %d %f%%", &bias, &pass, &of, &uniq); err != nil {
			t.Fatalf("parse %q row: %v", name, err)
		}
		return
	}
	_, adjPass, total, _ := parse("adjacent blocks")
	_, ccPass, _, ccUniq := parse("common-centroid")

	// Common-centroid must pass every NIST row on raw data.
	if ccPass != total {
		t.Errorf("common-centroid passed %d of %d rows, want all", ccPass, total)
	}
	// And beat the paper's adjacent layout.
	if ccPass <= adjPass {
		t.Errorf("common-centroid (%d) not above adjacent (%d)", ccPass, adjPass)
	}
	if ccUniq < 45 || ccUniq > 55 {
		t.Errorf("common-centroid uniqueness %.1f%%, want ~50%%", ccUniq)
	}
}
