package silicon

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"ropuf/internal/rngx"
)

// DelaysPS returns every device's delay under env in picoseconds, read
// through DelaysIntoPS into a fresh slice.
func (d *Die) DelaysPS(env Env) []float64 {
	delays, err := d.DelaysIntoPS(make([]float64, len(d.Devices)), env)
	if err != nil {
		panic(err) // unreachable: delays has one entry per device
	}
	return delays
}

// SystematicAt returns the systematic variation fraction at grid position
// (x, y).
func (d *Die) SystematicAt(x, y int) float64 {
	return d.surf.at(normCoord(x, d.W), normCoord(y, d.H))
}

func testDie(t *testing.T, seed uint64) *Die {
	t.Helper()
	d, err := NewDie(DefaultParams(), 16, 16, rngx.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("DefaultParams invalid: %v", err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.NominalDelayPS = 0 },
		func(p *Params) { p.NominalDelayPS = -1 },
		func(p *Params) { p.RandomSigma = -0.1 },
		func(p *Params) { p.SystematicAmp = -0.1 },
		func(p *Params) { p.VthSigma = -0.1 },
		func(p *Params) { p.VNom = 0.3 }, // below Vth
		func(p *Params) { p.Alpha = 0 },
		// Each of these once passed although it gives NaN, zero or
		// infinite delays.
		func(p *Params) { p.Alpha = math.NaN() },
		func(p *Params) { p.VthTempCoeff = math.Inf(1) },
		func(p *Params) { p.VNom = math.Inf(1) },
		func(p *Params) { p.VNom, p.VthNom = 0, -0.1 },
		func(p *Params) { p.TNom = -300 },
		func(p *Params) { p.TNom = -273.15 },
		func(p *Params) { p.RandomSigma = math.NaN() },
	}
	for i, mutate := range cases {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted bad params", i)
		}
	}
}

func TestNewDieRejectsBadDims(t *testing.T) {
	if _, err := NewDie(DefaultParams(), 0, 4, rngx.New(1)); err == nil {
		t.Fatal("NewDie accepted zero width")
	}
	if _, err := NewDie(DefaultParams(), 4, -1, rngx.New(1)); err == nil {
		t.Fatal("NewDie accepted negative height")
	}
}

func TestFabricationDeterminism(t *testing.T) {
	a := testDie(t, 5)
	b := testDie(t, 5)
	for i := 0; i < a.NumDevices(); i++ {
		if a.Device(i).Base != b.Device(i).Base || a.Device(i).Vth != b.Device(i).Vth {
			t.Fatalf("device %d differs between same-seed dies", i)
		}
	}
	c := testDie(t, 6)
	same := 0
	for i := 0; i < a.NumDevices(); i++ {
		if a.Device(i).Base == c.Device(i).Base {
			same++
		}
	}
	if same == a.NumDevices() {
		t.Fatal("different seeds produced identical dies")
	}
}

func TestNewDieIntoReusesStorage(t *testing.T) {
	d := testDie(t, 7)
	d.DelaysPS(Env{V: 1.08, T: 45}) // cache nominal drive terms to be dropped
	storage := &d.Devices[0]
	for _, dim := range [][2]int{{16, 16}, {8, 4}, {32, 16}} {
		got, err := NewDieInto(d, DefaultParams(), dim[0], dim[1], rngx.New(8))
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewDie(DefaultParams(), dim[0], dim[1], rngx.New(8))
		if err != nil {
			t.Fatal(err)
		}
		if got != d || got.W != want.W || got.H != want.H || len(got.Devices) != len(want.Devices) {
			t.Fatalf("%dx%d: refabricated die is not d at the new size", dim[0], dim[1])
		}
		if reused := &got.Devices[0] == storage; reused != (dim[0]*dim[1] <= 256) {
			t.Fatalf("%dx%d: device storage reused = %v", dim[0], dim[1], reused)
		}
		for i := range want.Devices {
			if got.Devices[i] != want.Devices[i] {
				t.Fatalf("%dx%d: device %d %+v, NewDie gives %+v", dim[0], dim[1], i, got.Devices[i], want.Devices[i])
			}
		}
		if got.SystematicAt(1, 2) != want.SystematicAt(1, 2) || got.nomVth != nil || got.nomDrive != nil {
			t.Fatalf("%dx%d: surface or cached nominal drive terms survive refabrication", dim[0], dim[1])
		}
	}
	before := d.Devices[3]
	bad := DefaultParams()
	bad.Alpha = 0
	if _, err := NewDieInto(d, bad, 4, 4, rngx.New(9)); err == nil {
		t.Fatal("NewDieInto accepted invalid params")
	}
	if d.Devices[3] != before || d.W != 32 {
		t.Fatal("a failed NewDieInto modified the die")
	}
}

// fabricateScalar is NewDieInto's device loop as it was before the normals
// came from fills: one NormMeanStd call per draw. It is the oracle
// TestNewDieIntoMatchesScalarDraws holds the fills to.
func fabricateScalar(p Params, w, h int, rng *rngx.RNG) ([]Device, surface) {
	var surf surface
	for i := range surf.c {
		surf.c[i] = rng.NormMeanStd(0, p.SystematicAmp/2)
	}
	devices := make([]Device, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			u := normCoord(x, w)
			v := normCoord(y, h)
			sys := surf.at(u, v)
			rnd := rng.NormMeanStd(0, p.RandomSigma)
			base := p.NominalDelayPS * (1 + sys + rnd)
			if base <= 0 {
				base = p.NominalDelayPS * 0.01
			}
			vth := p.VthNom + rng.NormMeanStd(0, p.VthSigma)
			devices[y*w+x] = Device{X: x, Y: y, Base: base, Vth: vth}
		}
	}
	return devices, surf
}

// TestNewDieIntoMatchesScalarDraws pins NewDieInto's chunked fills to the
// scalar loop bit for bit: every device, the surface and the generator's
// state afterwards, for grids whose device counts are odd and even, below
// one fill, at one and across several.
func TestNewDieIntoMatchesScalarDraws(t *testing.T) {
	p := DefaultParams()
	p.RandomSigma = 2 // large enough for the base clamp to fire on some devices
	for _, params := range []Params{DefaultParams(), p} {
		for _, dim := range [][2]int{{1, 1}, {3, 1}, {2, 2}, {5, 3}, {16, 8}, {1, 128}, {129, 1}, {13, 21}, {16, 32}, {40, 7}} {
			w, h := dim[0], dim[1]
			for seed := uint64(0); seed < 3; seed++ {
				ref, got := rngx.New(seed), rngx.New(seed)
				wantDevices, wantSurf := fabricateScalar(params, w, h, ref)
				d, err := NewDie(params, w, h, got)
				if err != nil {
					t.Fatal(err)
				}
				if d.surf != wantSurf {
					t.Fatalf("%dx%d seed %d: surface %v, want %v", w, h, seed, d.surf, wantSurf)
				}
				for i := range wantDevices {
					a, b := d.Devices[i], wantDevices[i]
					if a.X != b.X || a.Y != b.Y ||
						math.Float64bits(a.Base) != math.Float64bits(b.Base) ||
						math.Float64bits(a.Vth) != math.Float64bits(b.Vth) {
						t.Fatalf("%dx%d seed %d: device %d %+v, want %+v", w, h, seed, i, a, b)
					}
				}
				for i := 0; i < 3; i++ {
					if a, b := got.Norm(), ref.Norm(); math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("%dx%d seed %d: draw %d after fabrication %v, want %v", w, h, seed, i, a, b)
					}
				}
				if got.Uint64() != ref.Uint64() {
					t.Fatalf("%dx%d seed %d: raw stream diverged after fabrication", w, h, seed)
				}
			}
		}
	}
}

func TestDeviceGridPositions(t *testing.T) {
	d := testDie(t, 1)
	if d.NumDevices() != 256 {
		t.Fatalf("NumDevices = %d, want 256", d.NumDevices())
	}
	dev := d.Device(16*3 + 5) // row-major
	if dev.X != 5 || dev.Y != 3 {
		t.Fatalf("device position (%d,%d), want (5,3)", dev.X, dev.Y)
	}
}

func TestBaseDelayDistribution(t *testing.T) {
	p := DefaultParams()
	p.SystematicAmp = 0 // isolate random variation
	d, err := NewDie(p, 32, 32, rngx.New(2))
	if err != nil {
		t.Fatal(err)
	}
	var sum, sumSq float64
	n := float64(d.NumDevices())
	for i := 0; i < d.NumDevices(); i++ {
		sum += d.Device(i).Base
	}
	mean := sum / n
	for i := 0; i < d.NumDevices(); i++ {
		dd := d.Device(i).Base - mean
		sumSq += dd * dd
	}
	std := math.Sqrt(sumSq / n)
	if math.Abs(mean-p.NominalDelayPS)/p.NominalDelayPS > 0.01 {
		t.Errorf("mean base %.2f, want ~%.2f", mean, p.NominalDelayPS)
	}
	wantStd := p.NominalDelayPS * p.RandomSigma
	if math.Abs(std-wantStd)/wantStd > 0.15 {
		t.Errorf("base std %.3f, want ~%.3f", std, wantStd)
	}
}

func TestDelayAtNominalEqualsBase(t *testing.T) {
	d := testDie(t, 3)
	env := Env{V: d.Params.VNom, T: d.Params.TNom}
	for i := 0; i < 10; i++ {
		if d.DelayPS(i, env) != d.Device(i).Base {
			t.Fatalf("device %d: nominal delay %x != base %x", i, d.DelayPS(i, env), d.Device(i).Base)
		}
	}
}

func TestLowerVoltageSlowsDevices(t *testing.T) {
	d := testDie(t, 4)
	for i := 0; i < 20; i++ {
		nom := d.DelayPS(i, Nominal)
		low := d.DelayPS(i, Env{V: 0.98, T: 25})
		high := d.DelayPS(i, Env{V: 1.44, T: 25})
		if low <= nom {
			t.Fatalf("device %d: 0.98V delay %.2f not slower than nominal %.2f", i, low, nom)
		}
		if high >= nom {
			t.Fatalf("device %d: 1.44V delay %.2f not faster than nominal %.2f", i, high, nom)
		}
	}
}

func TestVoltageMonotonicity(t *testing.T) {
	d := testDie(t, 14)
	check := func(devSel uint8, va, vb uint8) bool {
		i := int(devSel) % d.NumDevices()
		v1 := 0.9 + float64(va%60)/100 // 0.9..1.49
		v2 := 0.9 + float64(vb%60)/100
		if v1 > v2 {
			v1, v2 = v2, v1
		}
		if v1 == v2 {
			return true
		}
		// Higher supply, faster device.
		return d.DelayPS(i, Env{V: v2, T: 25}) <= d.DelayPS(i, Env{V: v1, T: 25})
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTemperatureEffectSmallerThanVoltage(t *testing.T) {
	// The paper observes temperature barely moves bits while voltage does;
	// the model must reflect that ordering.
	d := testDie(t, 15)
	var dv, dt float64
	for i := 0; i < 50; i++ {
		nom := d.DelayPS(i, Nominal)
		dv += math.Abs(d.DelayPS(i, Env{V: 0.98, T: 25}) - nom)
		dt += math.Abs(d.DelayPS(i, Env{V: 1.20, T: 65}) - nom)
	}
	if dt >= dv/2 {
		t.Fatalf("temperature shift %.2f should be well below voltage shift %.2f", dt, dv)
	}
}

func TestEnvSensitivityVariesAcrossDevices(t *testing.T) {
	// Devices must not scale identically with voltage, or no bits would
	// ever flip. Compare the low-voltage scaling factor across devices.
	d := testDie(t, 16)
	lo := Env{V: 0.98, T: 25}
	minR, maxR := math.Inf(1), math.Inf(-1)
	for i := 0; i < d.NumDevices(); i++ {
		r := d.DelayPS(i, lo) / d.Device(i).Base
		if r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
	}
	if maxR-minR < 1e-4 {
		t.Fatalf("voltage scaling spread %.6g too small; Vth variation ineffective", maxR-minR)
	}
}

func TestSystematicSurfaceSmooth(t *testing.T) {
	d := testDie(t, 17)
	// Neighbouring grid points must have closer systematic values than
	// opposite corners on average (smoothness of the polynomial surface).
	var neighbour, corner float64
	n := 0
	for y := 0; y < d.H-1; y++ {
		for x := 0; x < d.W-1; x++ {
			neighbour += math.Abs(d.SystematicAt(x, y) - d.SystematicAt(x+1, y))
			n++
		}
	}
	neighbour /= float64(n)
	corner = math.Abs(d.SystematicAt(0, 0) - d.SystematicAt(d.W-1, d.H-1))
	if corner != 0 && neighbour > corner {
		t.Fatalf("mean neighbour delta %.6g exceeds corner delta %.6g; surface not smooth", neighbour, corner)
	}
}

func TestEnvFactorClampNearThreshold(t *testing.T) {
	// Driving the supply to (or below) Vth must stay finite and slower.
	d := testDie(t, 18)
	nom := d.DelayPS(0, Nominal)
	sub := d.DelayPS(0, Env{V: 0.40, T: 25})
	if math.IsInf(sub, 0) || math.IsNaN(sub) {
		t.Fatal("near-threshold delay not finite")
	}
	if sub <= nom {
		t.Fatal("near-threshold operation should be much slower than nominal")
	}
}

func TestDelayAtPSMatchesIndexedDelay(t *testing.T) {
	d := testDie(t, 19)
	env := Env{V: 1.08, T: 45}
	for i := 0; i < 10; i++ {
		if d.DelayPS(i, env) != d.DelayAtPS(*d.Device(i), env) {
			t.Fatalf("device %d: DelayAtPS disagrees with DelayPS", i)
		}
	}
}

// TestConcurrentReadsMatchReference reads one die from 8 goroutines at the
// nominal environment and three swept ones, through both the bulk and the
// point accessor; under -race it also checks that the nominal-drive cache
// behind DelaysIntoPS is properly guarded.
func TestConcurrentReadsMatchReference(t *testing.T) {
	d := testDie(t, 35)
	envs := []Env{Nominal, {V: 1.08, T: 45}, {V: 1.32, T: -20}, {V: 0.96, T: 85}}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]float64, d.NumDevices())
			for iter := 0; iter < 50; iter++ {
				env := envs[(g+iter)%len(envs)]
				if _, err := d.DelaysIntoPS(dst, env); err != nil {
					errc <- err
					return
				}
				i := (g*31 + iter) % d.NumDevices()
				dev := d.Devices[i]
				want := dev.Base * refEnvFactor(d.Params, dev.Vth, env)
				if math.Float64bits(dst[i]) != math.Float64bits(want) {
					errc <- fmt.Errorf("goroutine %d iter %d env %+v: DelaysIntoPS %x, reference %x",
						g, iter, env, math.Float64bits(dst[i]), math.Float64bits(want))
					return
				}
				if got := d.DelayAtPS(dev, env); math.Float64bits(got) != math.Float64bits(want) {
					errc <- fmt.Errorf("goroutine %d iter %d env %+v: DelayAtPS %x, reference %x",
						g, iter, env, math.Float64bits(got), math.Float64bits(want))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
