package silicon

import (
	"math"
	"testing"

	"ropuf/internal/rngx"
)

// AgedDelayPS returns the delay of device i under env after the given
// aging stress, in picoseconds: the per-index reference AgedDelayAtPS is
// checked against.
func (d *Die) AgedDelayPS(i int, env Env, a Aging) (float64, error) {
	if err := a.Validate(); err != nil {
		return 0, err
	}
	return d.DelayPS(i, env) * d.agingFactorVth(d.Devices[i].Vth, a), nil
}

func TestAgingValidate(t *testing.T) {
	if err := (Aging{Years: -1, Activity: 0.5}).Validate(); err == nil {
		t.Error("negative years accepted")
	}
	if err := (Aging{Years: 1, Activity: -0.1}).Validate(); err == nil {
		t.Error("negative activity accepted")
	}
	if err := (Aging{Years: 1, Activity: 1.1}).Validate(); err == nil {
		t.Error("activity > 1 accepted")
	}
	if err := (Aging{Years: 5, Activity: 1}).Validate(); err != nil {
		t.Errorf("valid stress rejected: %v", err)
	}
}

func TestAgingZeroStressIsIdentity(t *testing.T) {
	d := testDie(t, 30)
	for i := 0; i < 10; i++ {
		aged, err := d.AgedDelayPS(i, Nominal, Aging{})
		if err != nil {
			t.Fatal(err)
		}
		if aged != d.DelayPS(i, Nominal) {
			t.Fatalf("device %d: zero stress changed delay", i)
		}
	}
	aged, err := d.AgedDelayPS(0, Nominal, Aging{Years: 10, Activity: 0})
	if err != nil {
		t.Fatal(err)
	}
	if aged != d.DelayPS(0, Nominal) {
		t.Fatal("zero activity should not age the device")
	}
}

func TestAgingSlowsDevices(t *testing.T) {
	d := testDie(t, 31)
	for i := 0; i < 20; i++ {
		fresh := d.DelayPS(i, Nominal)
		aged, err := d.AgedDelayPS(i, Nominal, Aging{Years: 5, Activity: 1})
		if err != nil {
			t.Fatal(err)
		}
		if aged <= fresh {
			t.Fatalf("device %d: aging did not slow the device (%.3f vs %.3f)", i, aged, fresh)
		}
		// Sanity on magnitude: a few percent, not a few hundred.
		if aged/fresh > 1.10 {
			t.Fatalf("device %d: %.1f%% drift after 5y implausible", i, 100*(aged/fresh-1))
		}
	}
}

func TestAgingMonotoneInTime(t *testing.T) {
	d := testDie(t, 32)
	prev := d.DelayPS(0, Nominal)
	for _, years := range []float64{0.5, 1, 2, 5, 10, 20} {
		aged, err := d.AgedDelayPS(0, Nominal, Aging{Years: years, Activity: 1})
		if err != nil {
			t.Fatal(err)
		}
		if aged < prev {
			t.Fatalf("aging not monotone at %g years", years)
		}
		prev = aged
	}
}

func TestAgingSensitivityVariesAcrossDevices(t *testing.T) {
	d := testDie(t, 33)
	stress := Aging{Years: 10, Activity: 1}
	minR, maxR := math.Inf(1), math.Inf(-1)
	for i := 0; i < d.NumDevices(); i++ {
		aged, err := d.AgedDelayPS(i, Nominal, stress)
		if err != nil {
			t.Fatal(err)
		}
		r := aged / d.DelayPS(i, Nominal)
		if r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
	}
	if maxR-minR < 1e-4 {
		t.Fatalf("aging drift spread %.6g too small; uniform aging cannot flip bits", maxR-minR)
	}
}

func TestAgedDelayAtPSMatchesIndexed(t *testing.T) {
	d := testDie(t, 34)
	stress := Aging{Years: 3, Activity: 0.8}
	for i := 0; i < 10; i++ {
		a, err := d.AgedDelayPS(i, Nominal, stress)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.AgedDelayAtPS(*d.Device(i), Nominal, stress)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("device %d: AgedDelayAtPS disagrees with AgedDelayPS", i)
		}
	}
}

func TestAgedDelayRejectsBadStress(t *testing.T) {
	d, err := NewDie(DefaultParams(), 4, 4, rngx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AgedDelayPS(0, Nominal, Aging{Years: -1}); err == nil {
		t.Fatal("negative stress accepted")
	}
	if _, err := d.AgedDelayAtPS(*d.Device(0), Nominal, Aging{Activity: 2}); err == nil {
		t.Fatal("bad activity accepted")
	}
}
