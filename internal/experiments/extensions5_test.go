package experiments

import (
	"fmt"
	"strings"
	"testing"
)

func TestMultibitExperiment(t *testing.T) {
	res, err := sharedRunner.Run("multibit")
	if err != nil {
		t.Fatal(err)
	}
	type round struct {
		idx    int
		pairs  int
		margin float64
		flips  float64
	}
	var rounds []round
	for _, l := range strings.Split(res.Text, "\n") {
		var r round
		if _, err := fmt.Sscanf(strings.TrimSpace(l), "%d %d %f ps %f%%",
			&r.idx, &r.pairs, &r.margin, &r.flips); err == nil {
			rounds = append(rounds, r)
		}
	}
	if len(rounds) < 2 {
		t.Fatalf("only %d extraction rounds, want >= 2 (multi-bit must beat one bit/pair)", len(rounds))
	}
	if rounds[0].pairs != 288 {
		t.Errorf("round 1 covered %d pairs, want 288", rounds[0].pairs)
	}
	if rounds[1].margin >= rounds[0].margin {
		t.Errorf("round-2 margin %.1f not below round-1 %.1f", rounds[1].margin, rounds[0].margin)
	}
	if rounds[0].flips > 0.5 {
		t.Errorf("round-1 flip rate %.2f%%, want ~0", rounds[0].flips)
	}
	if rounds[1].flips > 5 {
		t.Errorf("round-2 flip rate %.2f%% implausibly high", rounds[1].flips)
	}
}

func TestMeasurementExperiment(t *testing.T) {
	res, err := sharedRunner.Run("measurement")
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		noise            float64
		repeats          int
		looRMSE, sglRMSE float64
		agree            float64
	}
	var rows []row
	for _, l := range strings.Split(res.Text, "\n") {
		var r row
		if _, err := fmt.Sscanf(strings.TrimSpace(l), "%f %d %f %f %f%%",
			&r.noise, &r.repeats, &r.looRMSE, &r.sglRMSE, &r.agree); err == nil {
			rows = append(rows, r)
		}
	}
	if len(rows) != 9 {
		t.Fatalf("parsed %d measurement rows, want 9", len(rows))
	}
	for _, r := range rows {
		// The leave-one-out protocol must not be worse than singleton
		// measurements (it shares noise across equations).
		if r.looRMSE > r.sglRMSE*1.1 {
			t.Errorf("noise=%.1f repeats=%d: leave-one-out RMSE %.3f above singleton %.3f",
				r.noise, r.repeats, r.looRMSE, r.sglRMSE)
		}
	}
	// More repeats at fixed noise must reduce RMSE.
	for _, noise := range []float64{0.5, 2.0, 5.0} {
		var prev float64 = 1e9
		for _, r := range rows {
			if r.noise != noise {
				continue
			}
			if r.looRMSE > prev {
				t.Errorf("noise=%.1f: RMSE not decreasing with repeats", noise)
			}
			prev = r.looRMSE
		}
	}
	// Realistic operating point: high bit agreement.
	for _, r := range rows {
		if r.noise == 0.5 && r.repeats == 5 && r.agree < 99 {
			t.Errorf("default operating point agreement %.1f%%, want ~100%%", r.agree)
		}
	}
}

func TestFig4Case2MoreReliableThanCase1(t *testing.T) {
	// The paper's §IV.D closing remark: Case-2's extra flexibility makes it
	// more reliable than Case-1. Compare mid-voltage means.
	c1, err := sharedRunner.Run("fig4")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := sharedRunner.Run("fig4case2")
	if err != nil {
		t.Fatal(err)
	}
	meanMid := func(text string) float64 {
		idx := strings.Index(text, "Mean over all boards and n:")
		if idx < 0 {
			t.Fatal("mean line missing")
		}
		var v [5]float64
		line := text[idx:]
		line = strings.Split(line, "\n")[1]
		if _, err := fmt.Sscanf(strings.TrimSpace(line), "%f %f %f %f %f",
			&v[0], &v[1], &v[2], &v[3], &v[4]); err != nil {
			t.Fatalf("parse mean line %q: %v", line, err)
		}
		return v[2] // mid-voltage configuration
	}
	m1, m2 := meanMid(c1.Text), meanMid(c2.Text)
	if m2 > m1+1e-9 {
		t.Errorf("Case-2 mid-voltage flips %.2f%% not <= Case-1 %.2f%%", m2, m1)
	}
}
