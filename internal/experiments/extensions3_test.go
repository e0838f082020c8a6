package experiments

import (
	"strings"
	"testing"
)

func TestEntropyExperiment(t *testing.T) {
	res, err := sharedRunner.Run("entropy")
	if err != nil {
		t.Fatal(err)
	}
	var mcv, markov, shannon, min float64
	if _, err := fscanLine(res.Text, "raw %f %f %f %f", &mcv, &markov, &shannon, &min); err != nil {
		t.Fatalf("parse raw row: %v", err)
	}
	rawMin := min
	if _, err := fscanLine(res.Text, "distilled %f %f %f %f", &mcv, &markov, &shannon, &min); err != nil {
		t.Fatalf("parse distilled row: %v", err)
	}
	if min <= rawMin {
		t.Errorf("distillation did not raise min-entropy: %.3f -> %.3f", rawMin, min)
	}
	if min < 0.85 {
		t.Errorf("distilled min-entropy %.3f, want near 1", min)
	}
	if rawMin > 0.8 {
		t.Errorf("raw min-entropy %.3f suspiciously high; systematic correlation missing", rawMin)
	}
}

func TestECCExperiment(t *testing.T) {
	res, err := sharedRunner.Run("ecc")
	if err != nil {
		t.Fatal(err)
	}
	type row struct{ key, resp, helper, fail, attempts int }
	parse := func(prefix string) row {
		var r row
		if _, err := fscanLine(res.Text, prefix+" %d %d %d %d/%d",
			&r.key, &r.resp, &r.helper, &r.fail, &r.attempts); err != nil {
			t.Fatalf("parse %q: %v", prefix, err)
		}
		return r
	}
	conf := parse("configurable, no ECC")
	rep := parse("traditional + repetition(3)")
	golay := parse("traditional + Golay(23,12)")

	if conf.helper != 0 {
		t.Errorf("configurable published %d helper bits, want 0", conf.helper)
	}
	if conf.fail != 0 {
		t.Errorf("configurable had %d key failures, want 0", conf.fail)
	}
	if conf.key != conf.resp {
		t.Errorf("configurable key bits %d != response bits %d", conf.key, conf.resp)
	}
	// Golay's rate (12/23) beats repetition's (1/3) on the same responses.
	if golay.key <= rep.key {
		t.Errorf("Golay key bits %d not above repetition %d", golay.key, rep.key)
	}
	if rep.helper == 0 || golay.helper == 0 {
		t.Error("extractors must publish helper data")
	}
}

func TestSensitivityExperiment(t *testing.T) {
	res, err := sharedRunner.Run("sensitivity")
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	if _, err := fscanLine(res.Text, "Worst configurable/traditional flip ratio across the grid: %f", &worst); err != nil {
		t.Fatalf("parse worst ratio: %v", err)
	}
	// The configurable PUF must dominate at every calibration corner.
	if worst >= 1 {
		t.Errorf("worst ratio %.2f >= 1: configurable advantage not robust", worst)
	}
	// All nine grid rows present.
	rows := 0
	for _, l := range strings.Split(res.Text, "\n") {
		if strings.Contains(l, "%") && strings.Count(l, ".") >= 3 {
			rows++
		}
	}
	if rows < 9 {
		t.Errorf("only %d grid rows rendered, want 9", rows)
	}
}
