package measure

import (
	"fmt"
	"testing"

	"ropuf/internal/circuit"
	"ropuf/internal/rngx"
	"ropuf/internal/silicon"
)

// benchRing builds a ring big enough for the requested stage count
// (3 devices per stage plus the enable gate).
func benchRing(b *testing.B, stages int) *circuit.Ring {
	b.Helper()
	side := 1
	for side*side < 3*stages+1 {
		side++
	}
	die, err := silicon.NewDie(silicon.DefaultParams(), side, side, rngx.New(uint64(stages)))
	if err != nil {
		b.Fatal(err)
	}
	r, err := circuit.NewBuilder(die).BuildRing(stages, circuit.DefaultMuxScale, circuit.DefaultWireScale)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

var benchSizes = []int{16, 64, 256}

// BenchmarkDdiffsNaive measures the direct leave-one-out protocol: n+1
// whole-ring evaluations, each computing every device's delay (the
// pre-optimization cost model).
func BenchmarkDdiffsNaive(b *testing.B) {
	for _, stages := range benchSizes {
		b.Run(fmt.Sprintf("stages=%d", stages), func(b *testing.B) {
			r := benchRing(b, stages)
			m := NewMeter(silicon.Nominal, rngx.New(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.DdiffsNaive(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDdiffsFast measures the incremental protocol: stage delays
// tabulated once, leave-one-out half-periods derived from the all-selected
// total.
func BenchmarkDdiffsFast(b *testing.B) {
	for _, stages := range benchSizes {
		b.Run(fmt.Sprintf("stages=%d", stages), func(b *testing.B) {
			r := benchRing(b, stages)
			m := NewMeter(silicon.Nominal, rngx.New(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Ddiffs(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPairDdiffs measures the enrollment-facing entry point (two rings
// per PUF pair) on the incremental path.
func BenchmarkPairDdiffs(b *testing.B) {
	const stages = 64
	die, err := silicon.NewDie(silicon.DefaultParams(), 20, 20, rngx.New(2))
	if err != nil {
		b.Fatal(err)
	}
	builder := circuit.NewBuilder(die)
	top, err := builder.BuildRing(stages, circuit.DefaultMuxScale, circuit.DefaultWireScale)
	if err != nil {
		b.Fatal(err)
	}
	bottom, err := builder.BuildRing(stages, circuit.DefaultMuxScale, circuit.DefaultWireScale)
	if err != nil {
		b.Fatal(err)
	}
	m := NewMeter(silicon.Nominal, rngx.New(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.PairDdiffs(top, bottom); err != nil {
			b.Fatal(err)
		}
	}
}

// sweptBoardEnvs are the VT dataset's nine conditions: nominal, the
// voltage sweep at 25 °C and the temperature sweep at 1.20 V. Package
// dataset imports measure, so its sweep lists cannot be used here.
var sweptBoardEnvs = []silicon.Env{
	silicon.Nominal,
	{V: 0.98, T: 25}, {V: 1.08, T: 25}, {V: 1.32, T: 25}, {V: 1.44, T: 25},
	{V: 1.20, T: 35}, {V: 1.20, T: 45}, {V: 1.20, T: 55}, {V: 1.20, T: 65},
}

// BenchmarkBoardMeter measures whole-board batch measurement (the VT
// dataset's hot loop). The ros=N rows re-read one warm die at one swept
// environment: one DelaysIntoPS and one NormFill per board, zero
// allocations. The swept-board row has a corpus's swept-board shape: each
// op refabricates a 512-RO die with NewDieInto and reads it under the nine
// VT conditions, paying the die's nominal-drive cache once. boards/s is
// the fleet-scale throughput figure.
func BenchmarkBoardMeter(b *testing.B) {
	p := silicon.DefaultParams()
	p.NominalDelayPS = 5208
	for _, grid := range [][2]int{{16, 16}, {16, 32}} {
		b.Run(fmt.Sprintf("ros=%d", grid[0]*grid[1]), func(b *testing.B) {
			die, err := silicon.NewDie(p, grid[0], grid[1], rngx.New(0xB0A2D))
			if err != nil {
				b.Fatal(err)
			}
			bm := NewBoardMeter(0.01)
			rng := rngx.New(7)
			dst := make([]float64, die.NumDevices())
			env := silicon.Env{V: 1.08, T: 45}
			if _, err := bm.MeasureInto(dst, die, env, rng); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bm.MeasureInto(dst, die, env, rng); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "boards/s")
		})
	}
	b.Run("swept-board", func(b *testing.B) {
		die, err := silicon.NewDie(p, 16, 32, rngx.New(0xB0A2D))
		if err != nil {
			b.Fatal(err)
		}
		bm := NewBoardMeter(0.01)
		fab, rng := rngx.New(0xFAB), rngx.New(7)
		dst := make([]float64, die.NumDevices())
		if _, err := bm.MeasureInto(dst, die, silicon.Nominal, rng); err != nil {
			b.Fatal(err) // sizes the meter's scratch
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := silicon.NewDieInto(die, p, 16, 32, fab); err != nil {
				b.Fatal(err)
			}
			for _, env := range sweptBoardEnvs {
				if _, err := bm.MeasureInto(dst, die, env, rng); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "boards/s")
	})
}
