package measure

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"ropuf/internal/rngx"
	"ropuf/internal/silicon"
)

func boardTestDie(t testing.TB, w, h int, seed uint64) *silicon.Die {
	t.Helper()
	p := silicon.DefaultParams()
	p.NominalDelayPS = 5208 // half-period of a ~96 MHz RO, the VT convention
	die, err := silicon.NewDie(p, w, h, rngx.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return die
}

// perDeviceReference is the historical measurement loop the BoardMeter
// replaced: per-device cached delay lookup plus one sequential Norm draw
// per device.
func perDeviceReference(die *silicon.Die, env silicon.Env, noiseMHz float64, rng *rngx.RNG) []float64 {
	out := make([]float64, die.NumDevices())
	for i := range out {
		period := 2 * die.DelayPS(i, env)
		out[i] = 1e6/period + rng.NormMeanStd(0, noiseMHz)
	}
	return out
}

func TestBoardMeterMatchesPerDeviceLoop(t *testing.T) {
	die := boardTestDie(t, 8, 8, 0xB0A2D)
	const noise = 0.01
	envs := []silicon.Env{
		silicon.Nominal,
		{V: 0.98, T: 25},
		{V: 1.2, T: 65},
	}
	bm := NewBoardMeter(noise)
	for _, env := range envs {
		want := perDeviceReference(die, env, noise, rngx.New(42))
		got, err := bm.MeasureInto(make([]float64, die.NumDevices()), die, env, rngx.New(42))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("env %+v RO %d: batch %x != per-device %x", env, i, got[i], want[i])
			}
		}
	}
}

func TestBoardMeterValidation(t *testing.T) {
	die := boardTestDie(t, 2, 2, 1)
	bm := NewBoardMeter(-0.5)
	if _, err := bm.MeasureInto(make([]float64, die.NumDevices()), die, silicon.Nominal, rngx.New(1)); err == nil {
		t.Fatal("accepted negative NoiseMHz")
	}
	bm = NewBoardMeter(0.01)
	short := make([]float64, die.NumDevices()-1)
	if _, err := bm.MeasureInto(short, die, silicon.Nominal, rngx.New(1)); err == nil {
		t.Fatal("accepted short destination buffer")
	}
}

func TestBoardMeterAllocs(t *testing.T) {
	die := boardTestDie(t, 16, 16, 2)
	bm := NewBoardMeter(0.01)
	rng := rngx.New(7)
	dst := make([]float64, die.NumDevices())
	env := silicon.Env{V: 1.08, T: 45}
	if _, err := bm.MeasureInto(dst, die, env, rng); err != nil {
		t.Fatal(err) // warm-up: grows scratch, caches the nominal drive terms
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := bm.MeasureInto(dst, die, env, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm MeasureInto allocates %.1f times per board, want 0", allocs)
	}
}

// TestBoardMeterFreshDieNominalAllocFree pins the cold nominal measurement
// a corpus pays for every nominal-only board: on a freshly fabricated die,
// with the meter's scratch already sized, it allocates nothing.
// testing.AllocsPerRun warms up with one call first, which would hide
// anything the cold call caches, so each cold call is counted on its own;
// the minimum over a few dies discounts a stray allocation by another
// goroutine.
func TestBoardMeterFreshDieNominalAllocFree(t *testing.T) {
	bm := NewBoardMeter(0.01)
	rng := rngx.New(7)
	dst := make([]float64, 16*16)
	if _, err := bm.MeasureInto(dst, boardTestDie(t, 16, 16, 1), silicon.Nominal, rng); err != nil {
		t.Fatal(err) // sizes the meter's scratch
	}
	var ms runtime.MemStats
	fewest := uint64(math.MaxUint64)
	for seed := uint64(2); seed < 5; seed++ {
		die := boardTestDie(t, 16, 16, seed)
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		_, err := bm.MeasureInto(dst, die, silicon.Nominal, rng)
		runtime.ReadMemStats(&ms)
		if err != nil {
			t.Fatal(err)
		}
		fewest = min(fewest, ms.Mallocs-before)
	}
	if fewest != 0 {
		t.Fatalf("a nominal MeasureInto on a fresh die allocates %d times, want 0", fewest)
	}
}

// TestBoardMeterConcurrentSharedDie drives several per-goroutine meters
// against one shared die and environment set (run under -race): the die's
// nominal-drive cache is the only shared state, and every goroutine must
// still read bit-identical physics.
func TestBoardMeterConcurrentSharedDie(t *testing.T) {
	die := boardTestDie(t, 8, 8, 0xCC)
	const noise = 0.02
	envs := []silicon.Env{silicon.Nominal, {V: 0.98, T: 25}, {V: 1.2, T: 65}}
	want := make([][]float64, len(envs))
	for ei, env := range envs {
		want[ei] = perDeviceReference(die, env, noise, rngx.New(uint64(ei)))
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bm := NewBoardMeter(noise)
			dst := make([]float64, die.NumDevices())
			for round := 0; round < 20; round++ {
				ei := round % len(envs)
				if _, err := bm.MeasureInto(dst, die, envs[ei], rngx.New(uint64(ei))); err != nil {
					errs <- err
					return
				}
				for i := range dst {
					if dst[i] != want[ei][i] {
						errs <- fmt.Errorf("env %d RO %d: concurrent read %x != %x", ei, i, dst[i], want[ei][i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestBoardMeterSeesVthMutation mutates one device between measurements of
// the same environment: the die's cached nominal drive term is now stale
// for that device and the meter must read fresh physics rather than the
// cached term.
func TestBoardMeterSeesVthMutation(t *testing.T) {
	die := boardTestDie(t, 4, 4, 9)
	bm := NewBoardMeter(0) // deterministic: isolate the physics
	env := silicon.Env{V: 0.98, T: 25}
	rng := rngx.New(1)
	before, err := bm.MeasureInto(make([]float64, die.NumDevices()), die, env, rng)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 5
	die.Device(victim).Vth += 0.02
	after, err := bm.MeasureInto(make([]float64, die.NumDevices()), die, env, rng)
	if err != nil {
		t.Fatal(err)
	}
	if after[victim] == before[victim] {
		t.Fatal("mutated device still reads the stale cached frequency")
	}
	dev := die.Device(victim)
	wantDelay := die.DelayAtPS(*dev, env)
	if want := 1e6 / (2 * wantDelay); after[victim] != want {
		t.Fatalf("mutated device reads %x, fresh physics says %x", after[victim], want)
	}
	for i := range after {
		if i != victim && after[i] != before[i] {
			t.Fatalf("unmutated device %d changed: %x != %x", i, after[i], before[i])
		}
	}
}
