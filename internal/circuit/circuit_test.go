package circuit

import (
	"math"
	"testing"
	"testing/quick"

	"ropuf/internal/rngx"
	"ropuf/internal/silicon"
)

func testRing(t *testing.T, stages int, seed uint64) *Ring {
	t.Helper()
	die, err := silicon.NewDie(silicon.DefaultParams(), 16, 16, rngx.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewBuilder(die).BuildRing(stages, DefaultMuxScale, DefaultWireScale)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigStringRoundtrip(t *testing.T) {
	check := func(mask uint16, lenSel uint8) bool {
		n := int(lenSel%16) + 1
		c := NewConfig(n)
		for i := 0; i < n; i++ {
			c[i] = mask>>uint(i)&1 == 1
		}
		parsed, err := ParseConfig(c.String())
		if err != nil {
			return false
		}
		if len(parsed) != n {
			return false
		}
		for i := range parsed {
			if parsed[i] != c[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseConfigInvalid(t *testing.T) {
	if _, err := ParseConfig("01x"); err == nil {
		t.Fatal("ParseConfig accepted invalid character")
	}
}

func TestConfigOnes(t *testing.T) {
	c, _ := ParseConfig("10110")
	if c.Ones() != 3 {
		t.Fatalf("Ones = %d, want 3", c.Ones())
	}
}

func TestAllSelected(t *testing.T) {
	c := AllSelected(4)
	if c.Ones() != 4 {
		t.Fatalf("AllSelected Ones = %d, want 4", c.Ones())
	}
	if NewConfig(4).Ones() != 0 {
		t.Fatal("NewConfig should be all zeros")
	}
}

func TestHalfPeriodIsSumOfStageDelays(t *testing.T) {
	r := testRing(t, 5, 1)
	env := silicon.Nominal
	cfg, _ := ParseConfig("10101")
	hp, err := r.HalfPeriodPS(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Die.DelayAtPS(r.Enable, env)
	for i := range r.Units {
		want += r.Units[i].DelayPS(cfg[i], env)
	}
	if math.Abs(hp-want) > 1e-9 {
		t.Fatalf("HalfPeriod = %.6f, want %.6f", hp, want)
	}
}

func TestPeriodTwiceHalfPeriod(t *testing.T) {
	r := testRing(t, 3, 2)
	cfg := AllSelected(3)
	hp, _ := r.HalfPeriodPS(cfg, silicon.Nominal)
	p, _ := r.PeriodPS(cfg, silicon.Nominal)
	if math.Abs(p-2*hp) > 1e-9 {
		t.Fatalf("Period %.4f != 2 × HalfPeriod %.4f", p, hp)
	}
}

func TestConfigLengthValidation(t *testing.T) {
	r := testRing(t, 4, 4)
	if _, err := r.HalfPeriodPS(NewConfig(3), silicon.Nominal); err == nil {
		t.Fatal("accepted wrong-length configuration")
	}
	if _, err := r.PeriodPS(NewConfig(5), silicon.Nominal); err == nil {
		t.Fatal("accepted wrong-length configuration")
	}
}

func TestSelectedStageSlower(t *testing.T) {
	// Selecting a stage routes through inverter + MUX path-1, which is
	// slower than the bypass wire for the default scales.
	r := testRing(t, 6, 5)
	for i := range r.Units {
		sel := r.Units[i].DelayPS(true, silicon.Nominal)
		byp := r.Units[i].DelayPS(false, silicon.Nominal)
		if sel <= byp {
			t.Fatalf("stage %d: selected delay %.2f not slower than bypass %.2f", i, sel, byp)
		}
	}
}

func TestDdiffMatchesDelayDifference(t *testing.T) {
	r := testRing(t, 4, 6)
	env := silicon.Env{V: 1.08, T: 35}
	for i := range r.Units {
		want := r.Units[i].DelayPS(true, env) - r.Units[i].DelayPS(false, env)
		if math.Abs(r.Units[i].DdiffPS(env)-want) > 1e-9 {
			t.Fatalf("stage %d DdiffPS mismatch", i)
		}
	}
}

func TestTrueDdiffsPS(t *testing.T) {
	r := testRing(t, 5, 7)
	dd := r.TrueDdiffsPS(silicon.Nominal)
	if len(dd) != 5 {
		t.Fatalf("TrueDdiffsPS length %d, want 5", len(dd))
	}
	for i, v := range dd {
		if math.Abs(v-r.Units[i].DdiffPS(silicon.Nominal)) > 1e-12 {
			t.Fatalf("stage %d mismatch", i)
		}
	}
}

func TestConfigDelayMonotonicity(t *testing.T) {
	// Adding a selected stage can only slow the ring (selected > bypass).
	r := testRing(t, 8, 9)
	check := func(mask uint8, extra uint8) bool {
		cfg := NewConfig(8)
		for i := 0; i < 8; i++ {
			cfg[i] = mask>>uint(i)&1 == 1
		}
		i := int(extra) % 8
		if cfg[i] {
			return true
		}
		base, err := r.HalfPeriodPS(cfg, silicon.Nominal)
		if err != nil {
			return false
		}
		cfg[i] = true
		more, err := r.HalfPeriodPS(cfg, silicon.Nominal)
		if err != nil {
			return false
		}
		return more > base
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderAllocation(t *testing.T) {
	die, err := silicon.NewDie(silicon.DefaultParams(), 4, 4, rngx.New(10))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(die) // 16 devices: ring of 5 stages needs 16
	if b.next != 0 {
		t.Fatalf("fresh builder has allocated %d devices", b.next)
	}
	if _, err := b.BuildRing(5, DefaultMuxScale, DefaultWireScale); err != nil {
		t.Fatal(err)
	}
	if rem := die.NumDevices() - b.next; rem != 0 {
		t.Fatalf("remaining after build = %d, want 0", rem)
	}
	if _, err := b.BuildRing(1, DefaultMuxScale, DefaultWireScale); err == nil {
		t.Fatal("builder did not report die exhaustion")
	}
}

// TestNumStagesSizesConfigs checks that NumStages is the configuration
// length the ring accepts.
func TestNumStagesSizesConfigs(t *testing.T) {
	for _, n := range []int{1, 3, 7} {
		r := testRing(t, n, uint64(20+n))
		if r.NumStages() != n {
			t.Fatalf("NumStages = %d, want %d", r.NumStages(), n)
		}
		if _, err := r.HalfPeriodPS(NewConfig(r.NumStages()), silicon.Nominal); err != nil {
			t.Fatalf("%d stages: config of NumStages length rejected: %v", n, err)
		}
		if _, err := r.HalfPeriodPS(NewConfig(r.NumStages()+1), silicon.Nominal); err == nil {
			t.Fatalf("%d stages: config one longer than NumStages accepted", n)
		}
	}
}

func TestBuilderValidation(t *testing.T) {
	die, _ := silicon.NewDie(silicon.DefaultParams(), 8, 8, rngx.New(11))
	b := NewBuilder(die)
	if _, err := b.BuildRing(0, 1, 1); err == nil {
		t.Fatal("BuildRing accepted zero stages")
	}
	if _, err := b.BuildRing(3, 0, 1); err == nil {
		t.Fatal("BuildRing accepted zero mux scale")
	}
	if _, err := b.BuildRing(3, 1, -1); err == nil {
		t.Fatal("BuildRing accepted negative wire scale")
	}
}

func TestBuilderDistinctDevices(t *testing.T) {
	die, _ := silicon.NewDie(silicon.DefaultParams(), 8, 8, rngx.New(12))
	b := NewBuilder(die)
	r1, err := b.BuildRing(3, DefaultMuxScale, DefaultWireScale)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := b.BuildRing(3, DefaultMuxScale, DefaultWireScale)
	if err != nil {
		t.Fatal(err)
	}
	// Two rings built from one die must not share inverter positions.
	pos := map[[2]int]bool{}
	for _, u := range r1.Units {
		pos[[2]int{u.Inverter.X, u.Inverter.Y}] = true
	}
	for _, u := range r2.Units {
		if pos[[2]int{u.Inverter.X, u.Inverter.Y}] {
			t.Fatal("rings share an inverter device")
		}
	}
}

func TestStageDelaysPSMatchesPerStageAccessors(t *testing.T) {
	envs := []silicon.Env{silicon.Nominal, {V: 0.96, T: 85}}
	for _, stages := range []int{1, 5, 17} {
		r := testRing(t, stages, uint64(60+stages))
		sel1 := make([]float64, stages)
		sel0 := make([]float64, stages)
		for _, env := range envs {
			enable, err := r.StageDelaysPS(env, sel1, sel0)
			if err != nil {
				t.Fatal(err)
			}
			if want := r.Die.DelayAtPS(r.Enable, env); enable != want {
				t.Fatalf("enable delay %g, want %g", enable, want)
			}
			for i := range r.Units {
				if want := r.Units[i].DelayPS(true, env); sel1[i] != want {
					t.Fatalf("stage %d sel1 %x, want %x", i, math.Float64bits(sel1[i]), math.Float64bits(want))
				}
				if want := r.Units[i].DelayPS(false, env); sel0[i] != want {
					t.Fatalf("stage %d sel0 %x, want %x", i, math.Float64bits(sel0[i]), math.Float64bits(want))
				}
			}
		}
	}
}

func TestStageDelaysPSBufferLengthError(t *testing.T) {
	r := testRing(t, 4, 70)
	if _, err := r.StageDelaysPS(silicon.Nominal, make([]float64, 3), make([]float64, 4)); err == nil {
		t.Fatal("short sel1 buffer accepted")
	}
	if _, err := r.StageDelaysPS(silicon.Nominal, make([]float64, 4), make([]float64, 5)); err == nil {
		t.Fatal("long sel0 buffer accepted")
	}
}

func BenchmarkHalfPeriod(b *testing.B) {
	r := benchHalfPeriodRing(b)
	cfg := AllSelected(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.HalfPeriodPS(cfg, silicon.Nominal); err != nil {
			b.Fatal(err)
		}
	}
}

func benchHalfPeriodRing(b *testing.B) *Ring {
	b.Helper()
	die, err := silicon.NewDie(silicon.DefaultParams(), 14, 14, rngx.New(8))
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewBuilder(die).BuildRing(64, DefaultMuxScale, DefaultWireScale)
	if err != nil {
		b.Fatal(err)
	}
	return r
}
