package experiments

import (
	"fmt"
	"strings"
	"testing"
)

func TestSecurityExperiment(t *testing.T) {
	res, err := sharedRunner.Run("security")
	if err != nil {
		t.Fatal(err)
	}
	// The equal-count rule must zero the predictor's advantage...
	if !strings.Contains(res.Text, "Case-2 (equal counts, the paper)") {
		t.Fatal("security report missing constrained row")
	}
	var confident int
	var acc, adv float64
	if _, err := fscanLine(res.Text, "Case-2 (equal counts, the paper) %d %f%% %f", &confident, &acc, &adv); err != nil {
		t.Fatalf("parse constrained row: %v", err)
	}
	if confident != 0 || adv != 0 {
		t.Errorf("equal-count selections leaked: confident=%d advantage=%g", confident, adv)
	}
	// ...while the unconstrained strawman leaks heavily.
	var uConf int
	var uAcc, uAdv float64
	if _, err := fscanLine(res.Text, "unconstrained margin maximizer %d %f%% %f", &uConf, &uAcc, &uAdv); err != nil {
		t.Fatalf("parse unconstrained row: %v", err)
	}
	if uAcc < 80 {
		t.Errorf("unconstrained accuracy %.1f%%, expected a large leak", uAcc)
	}
}

func TestNISTLongExperiment(t *testing.T) {
	res, err := sharedRunner.Run("nistlong")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "sequence length: 9312 bits") {
		t.Fatal("wrong corpus length")
	}
	// LongestRun becomes applicable at this length and must appear.
	if !strings.Contains(res.Text, "LongestRun") {
		t.Error("LongestRun missing from long-sequence run")
	}
	var pass, total int
	found := false
	for _, line := range strings.Split(res.Text, "\n") {
		if strings.Contains(line, "sub-tests passed") {
			if _, err := fmt.Sscanf(line, "%d of %d sub-tests passed", &pass, &total); err != nil {
				t.Fatalf("parse pass line %q: %v", line, err)
			}
			found = true
			break
		}
	}
	if !found {
		t.Fatal("pass line missing")
	}
	if total < 100 {
		t.Fatalf("only %d sub-tests ran, expected the template battery", total)
	}
	// Allow the statistically expected ~1% failures plus slack.
	if float64(pass) < 0.95*float64(total) {
		t.Fatalf("%d of %d sub-tests passed; distilled bits look structured", pass, total)
	}
}

func TestMaitiExperiment(t *testing.T) {
	res, err := sharedRunner.Run("maiti")
	if err != nil {
		t.Fatal(err)
	}
	var maitiFlip, maitiMargin float64
	if _, err := fscanLine(res.Text, "Maiti-Schaumont CRO (8 configs) %f%% %f", &maitiFlip, &maitiMargin); err != nil {
		t.Fatalf("parse maiti row: %v", err)
	}
	var confFlip, confMargin float64
	if _, err := fscanLine(res.Text, "inverter-level Case-2 (this paper) %f%% %f", &confFlip, &confMargin); err != nil {
		t.Fatalf("parse configurable row: %v", err)
	}
	var tradFlip float64
	if _, err := fscanLine(res.Text, "traditional (no configurability) %f%%", &tradFlip); err != nil {
		t.Fatalf("parse traditional row: %v", err)
	}
	// Ordering the paper's related-work section predicts: inverter-level
	// beats Maiti beats traditional (margins larger, flips fewer-or-equal).
	if confMargin <= maitiMargin {
		t.Errorf("configurable margin %.1f not above Maiti %.1f", confMargin, maitiMargin)
	}
	if confFlip > maitiFlip {
		t.Errorf("configurable flips %.2f%% above Maiti %.2f%%", confFlip, maitiFlip)
	}
	if tradFlip <= maitiFlip {
		t.Errorf("traditional flips %.2f%% not above Maiti %.2f%%", tradFlip, maitiFlip)
	}
}

func TestParityExperiment(t *testing.T) {
	res, err := sharedRunner.Run("parity")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Text, "CONSTRAINT VIOLATIONS") {
		t.Fatal("odd-count selection violated its own constraint")
	}
	// Margin loss from the parity constraint must be small (< 10%).
	for _, mode := range []string{"Case-1", "Case-2"} {
		idx := strings.Index(res.Text, mode+" over")
		if idx < 0 {
			t.Fatalf("missing %s section", mode)
		}
		section := res.Text[idx:]
		var loss float64
		if _, err := fscanLine(section, "mean margin odd-count: %f ps (loss %f%%)", &loss, &loss); err != nil {
			// two %f share the variable; the second assignment is the loss
			t.Fatalf("parse %s loss: %v", mode, err)
		}
		if loss > 10 {
			t.Errorf("%s: parity constraint costs %.2f%% margin, expected small", mode, loss)
		}
	}
}
