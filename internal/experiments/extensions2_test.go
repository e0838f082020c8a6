package experiments

import (
	"fmt"
	"strings"
	"testing"
)

func TestUtilizationExperiment(t *testing.T) {
	res, err := sharedRunner.Run("utilization")
	if err != nil {
		t.Fatal(err)
	}
	var coopBits, coopFlips, oo8Bits float64
	if _, err := fscanLine(res.Text, "cooperative (multi-corner, ref [2]) %f %f%%", &coopBits, &coopFlips); err != nil {
		t.Fatalf("parse cooperative row: %v", err)
	}
	var oo8Flips float64
	if _, err := fscanLine(res.Text, "1-out-of-8 %f %f%%", &oo8Bits, &oo8Flips); err != nil {
		t.Fatalf("parse 1-out-of-8 row: %v", err)
	}
	// Cooperative recovers far more bits per RO than 1-out-of-8 (the
	// related-work claim of the paper's reference [2]).
	if coopBits <= oo8Bits {
		t.Errorf("cooperative %g bits not above 1-out-of-8 %g", coopBits, oo8Bits)
	}
	// And stays reliable (it selected for stability directly).
	if coopFlips > 1 {
		t.Errorf("cooperative flip rate %.2f%%, expected ~0", coopFlips)
	}
	var confBits, confFlips float64
	if _, err := fscanLine(res.Text, "configurable Case-2 (margin mask) %f %f%%", &confBits, &confFlips); err != nil {
		t.Fatalf("parse configurable row: %v", err)
	}
	if confFlips > 1 {
		t.Errorf("configurable flip rate %.2f%%, expected ~0", confFlips)
	}
}

func TestDistillerExperiment(t *testing.T) {
	res, err := sharedRunner.Run("distiller")
	if err != nil {
		t.Fatal(err)
	}
	var rawI, resI float64
	if _, err := fscanLine(res.Text, "Moran's I (radius 2, mean over 10 boards): raw %f -> distilled %f", &rawI, &resI); err != nil {
		t.Fatalf("parse Moran's I line: %v", err)
	}
	if rawI < 0.2 {
		t.Errorf("raw Moran's I %.3f too low; systematic variation missing", rawI)
	}
	if resI > 0.05 || resI < -0.1 {
		t.Errorf("distilled Moran's I %.3f; spatial structure survived", resI)
	}
	// Degree 2 and above must pass NIST; degree 0 must not.
	lines := strings.Split(res.Text, "\n")
	passAt := map[int]bool{}
	for _, l := range lines {
		var deg, pass, of int
		var all bool
		if _, err := fmt.Sscanf(strings.TrimSpace(l), "%d %d of %d %t", &deg, &pass, &of, &all); err == nil {
			passAt[deg] = all
		}
	}
	if passAt[0] {
		t.Error("degree-0 distillation passed NIST; systematic variation should persist")
	}
	if !passAt[2] {
		t.Error("degree-2 distillation failed NIST")
	}
	if !passAt[4] {
		t.Error("degree-4 distillation failed NIST")
	}
}

func TestAgingExperiment(t *testing.T) {
	res, err := sharedRunner.Run("aging")
	if err != nil {
		t.Fatal(err)
	}
	var c2 [5]float64
	if _, err := fscanLine(res.Text, "configurable Case-2 %f%% %f%% %f%% %f%% %f%%", &c2[0], &c2[1], &c2[2], &c2[3], &c2[4]); err != nil {
		t.Fatalf("parse Case-2 row: %v", err)
	}
	var trad [5]float64
	if _, err := fscanLine(res.Text, "traditional %f%% %f%% %f%% %f%% %f%%", &trad[0], &trad[1], &trad[2], &trad[3], &trad[4]); err != nil {
		t.Fatalf("parse traditional row: %v", err)
	}
	// Configurable must age strictly better than traditional at 10 years.
	if c2[3] >= trad[3] && trad[3] > 0 {
		t.Errorf("Case-2 flips %.2f%% not below traditional %.2f%% at 10y", c2[3], trad[3])
	}
	// Traditional flip rate must be monotone-ish in age (allow equality).
	for i := 1; i < len(trad); i++ {
		if trad[i] < trad[i-1]-1e-9 {
			t.Errorf("traditional aging flips not monotone: %v", trad)
			break
		}
	}
}

func TestModelingExperiment(t *testing.T) {
	res, err := sharedRunner.Run("modeling")
	if err != nil {
		t.Fatal(err)
	}
	// Parse the accuracy table: accuracy must grow with training size and
	// end well above chance.
	var sizes []int
	var accs []float64
	for _, l := range strings.Split(res.Text, "\n") {
		var n int
		var a float64
		if _, err := fmt.Sscanf(strings.TrimSpace(l), "%d %f%%", &n, &a); err == nil {
			sizes = append(sizes, n)
			accs = append(accs, a)
		}
	}
	if len(sizes) < 4 {
		t.Fatalf("parsed only %d table rows", len(sizes))
	}
	if accs[len(accs)-1] < 90 {
		t.Errorf("final modeling accuracy %.1f%%, expected the attack to succeed", accs[len(accs)-1])
	}
	if accs[0] > accs[len(accs)-1] {
		t.Errorf("accuracy did not grow with training data: %v", accs)
	}
}
