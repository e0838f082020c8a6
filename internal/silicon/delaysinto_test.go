package silicon

import (
	"testing"

	"ropuf/internal/rngx"
)

func delaysTestDie(t testing.TB) *Die {
	t.Helper()
	die, err := NewDie(DefaultParams(), 6, 6, rngx.New(0xD1E))
	if err != nil {
		t.Fatal(err)
	}
	return die
}

func TestDelaysIntoPSMatchesDelayPS(t *testing.T) {
	die := delaysTestDie(t)
	for _, env := range []Env{Nominal, {V: 0.98, T: 25}, {V: 1.2, T: 65}} {
		dst := make([]float64, die.NumDevices())
		if _, err := die.DelaysIntoPS(dst, env); err != nil {
			t.Fatal(err)
		}
		for i := range dst {
			if want := die.DelayPS(i, env); dst[i] != want {
				t.Fatalf("env %+v device %d: batch %x != scalar %x", env, i, dst[i], want)
			}
		}
	}
}

func TestDelaysIntoPSValidatesLength(t *testing.T) {
	die := delaysTestDie(t)
	if _, err := die.DelaysIntoPS(make([]float64, die.NumDevices()-1), Nominal); err == nil {
		t.Fatal("accepted short destination")
	}
	if _, err := die.DelaysIntoPS(make([]float64, die.NumDevices()+1), Nominal); err == nil {
		t.Fatal("accepted long destination")
	}
}

func TestDelaysIntoPSAllocFree(t *testing.T) {
	die := delaysTestDie(t)
	env := Env{V: 1.08, T: 45}
	dst := make([]float64, die.NumDevices())
	if _, err := die.DelaysIntoPS(dst, env); err != nil {
		t.Fatal(err) // pins the env table
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := die.DelaysIntoPS(dst, env); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm DelaysIntoPS allocates %.1f times, want 0", allocs)
	}
}

// TestDelaysIntoPSStaleVthFallsBack mutates one device after the env table
// is pinned: the batch read must recompute that device from its live Vth
// (bit-identical to the scalar accessor, which shares the staleness rule)
// while still serving the others from the table.
func TestDelaysIntoPSStaleVthFallsBack(t *testing.T) {
	die := delaysTestDie(t)
	env := Env{V: 0.98, T: 25}
	before := make([]float64, die.NumDevices())
	if _, err := die.DelaysIntoPS(before, env); err != nil {
		t.Fatal(err)
	}
	const victim = 7
	die.Device(victim).Vth += 0.015
	after := make([]float64, die.NumDevices())
	if _, err := die.DelaysIntoPS(after, env); err != nil {
		t.Fatal(err)
	}
	if after[victim] == before[victim] {
		t.Fatal("stale cached delay served for the mutated device")
	}
	if want := die.DelayAtUncachedPS(*die.Device(victim), env); after[victim] != want {
		t.Fatalf("mutated device batch delay %x != fresh %x", after[victim], want)
	}
	for i := range after {
		if i != victim && after[i] != before[i] {
			t.Fatalf("unmutated device %d changed", i)
		}
	}
}

// TestDelaysIntoPSNominalBuildsNoTable pins the nominal identity's cost: a
// fresh die's nominal read copies Base and leaves the table store empty.
func TestDelaysIntoPSNominalBuildsNoTable(t *testing.T) {
	die := delaysTestDie(t)
	dst, err := die.DelaysIntoPS(make([]float64, die.NumDevices()), Nominal)
	if err != nil {
		t.Fatal(err)
	}
	if die.current.Load() != nil || len(die.tables) != 0 {
		t.Fatalf("nominal DelaysIntoPS cached %d tables", len(die.tables))
	}
	for i, dev := range die.Devices {
		if dst[i] != dev.Base {
			t.Fatalf("device %d: nominal delay %x != base %x", i, dst[i], dev.Base)
		}
	}
}
