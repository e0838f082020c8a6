package silicon

import (
	"testing"

	"ropuf/internal/rngx"
)

func BenchmarkNewDie512(b *testing.B) {
	p := DefaultParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewDie(p, 16, 32, rngx.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDelayPS(b *testing.B) {
	d, err := NewDie(DefaultParams(), 16, 16, rngx.New(1))
	if err != nil {
		b.Fatal(err)
	}
	env := Env{V: 1.08, T: 45}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.DelayPS(i%d.NumDevices(), env)
	}
}

func BenchmarkAgedDelayPS(b *testing.B) {
	d, err := NewDie(DefaultParams(), 16, 16, rngx.New(2))
	if err != nil {
		b.Fatal(err)
	}
	stress := Aging{Years: 5, Activity: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.AgedDelayPS(i%d.NumDevices(), Nominal, stress); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnvFactorUncached prices one whole-die environment-factor sweep
// computed from scratch: three math.Pow calls per device at a swept
// environment, the per-evaluation cost the delay-table cache eliminates.
func BenchmarkEnvFactorUncached(b *testing.B) {
	d, err := NewDie(DefaultParams(), 16, 16, rngx.New(3))
	if err != nil {
		b.Fatal(err)
	}
	env := Env{V: 1.08, T: 45}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for j := range d.Devices {
			sink += d.DelayAtUncachedPS(d.Devices[j], env)
		}
	}
	benchSink = sink
}

// BenchmarkEnvFactorCached prices the same whole-die sweep through the
// cached factor table (built once, then a multiply per device into a
// reused slice).
func BenchmarkEnvFactorCached(b *testing.B) {
	d, err := NewDie(DefaultParams(), 16, 16, rngx.New(3))
	if err != nil {
		b.Fatal(err)
	}
	env := Env{V: 1.08, T: 45}
	delays := make([]float64, d.NumDevices())
	if _, err := d.DelaysIntoPS(delays, env); err != nil { // build outside the timed region
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		if _, err := d.DelaysIntoPS(delays, env); err != nil {
			b.Fatal(err)
		}
		for _, v := range delays {
			sink += v
		}
	}
	benchSink = sink
}

// benchSink defeats dead-code elimination of the benchmark loops.
var benchSink float64
