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
