package silicon

import (
	"math"
	"testing"

	"ropuf/internal/rngx"
)

// refDelay and refEnvFactor are the environment factor as it stood before
// the nominal identity and the shared terms: every call evaluates the
// alpha-power-law delay at env and at nominal, four math.Pow calls. Every
// delay accessor must stay bit-identical to Base × refEnvFactor.
func refDelay(p Params, vth, v, tC float64) float64 {
	vthT := vth + p.VthTempCoeff*(tC-p.TNom)
	overdrive := v - vthT
	if overdrive < 0.02 {
		overdrive = 0.02
	}
	tK := tC + 273.15
	t0K := p.TNom + 273.15
	mob := refPow(tK/t0K, p.MobilityExp)
	return v / refPow(overdrive, p.Alpha) * mob
}

func refEnvFactor(p Params, vth float64, env Env) float64 {
	return refDelay(p, vth, env.V, env.T) / refDelay(p, vth, p.VNom, p.TNom)
}

func refPow(base, exp float64) float64 {
	if base <= 0 {
		return 0
	}
	return math.Pow(base, exp)
}

// vtEnvs are the nine V/T conditions of the VT dataset, the clamped
// near-threshold supply, and the cold and hot corners.
var vtEnvs = []Env{
	{V: 0.98, T: 25}, {V: 1.08, T: 25}, {V: 1.20, T: 25}, {V: 1.32, T: 25}, {V: 1.44, T: 25},
	{V: 1.20, T: 35}, {V: 1.20, T: 45}, {V: 1.20, T: 55}, {V: 1.20, T: 65},
	{V: 0.40, T: 25}, {V: 1.20, T: -20}, {V: 1.20, T: 85},
}

// accessorDelays evaluates every delay accessor of d under env and returns
// each one's per-device delays by name.
func accessorDelays(t testing.TB, d *Die, env Env) map[string][]float64 {
	t.Helper()
	n := d.NumDevices()
	ps, at := make([]float64, n), make([]float64, n)
	for i, dev := range d.Devices {
		ps[i], at[i] = d.DelayPS(i, env), d.DelayAtPS(dev, env)
	}
	into, err := d.DelaysIntoPS(make([]float64, n), env)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]float64{"DelayPS": ps, "DelayAtPS": at, "DelaysIntoPS": into}
}

// sameFloat reports bit equality, counting any two NaNs as equal.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// requireReference fails unless got holds Base × refEnvFactor, bit for bit,
// for every device of d under env.
func requireReference(t testing.TB, d *Die, env Env, name string, got []float64) {
	t.Helper()
	for i, dev := range d.Devices {
		if want := dev.Base * refEnvFactor(d.Params, dev.Vth, env); !sameFloat(got[i], want) {
			t.Fatalf("env %+v device %d (Vth %v): %s %x, reference %x",
				env, i, dev.Vth, name, math.Float64bits(got[i]), math.Float64bits(want))
		}
	}
}

// requireAccessorsMatchReference checks every accessor of d under env
// against the reference.
func requireAccessorsMatchReference(t testing.TB, d *Die, env Env) {
	t.Helper()
	for name, got := range accessorDelays(t, d, env) {
		requireReference(t, d, env, name, got)
	}
}

func TestAccessorsMatchPreShortcutFormula(t *testing.T) {
	t.Run("default params", func(t *testing.T) {
		d := testDie(t, 41)
		for _, env := range vtEnvs {
			requireAccessorsMatchReference(t, d, env)
		}
	})

	t.Run("random valid params", func(t *testing.T) {
		rng := rngx.New(42)
		uni := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
		for k := 0; k < 200; k++ {
			p := Params{
				NominalDelayPS: uni(50, 6000),
				SystematicAmp:  uni(0, 0.1),
				RandomSigma:    uni(0, 0.05),
				VNom:           uni(0.8, 1.8),
				TNom:           uni(-40, 125),
				Alpha:          uni(1, 2),
				VthNom:         uni(0.2, 0.6),
				VthSigma:       uni(0, 0.05),
				VthTempCoeff:   uni(-0.003, 0),
				MobilityExp:    uni(0.5, 2.5),
			}
			d, err := NewDie(p, 4, 4, rng.Split())
			if err != nil {
				t.Fatalf("params %+v: %v", p, err)
			}
			envs := append([]Env{p.nominal(), {V: 0.9 * p.VNom, T: p.TNom}, {V: p.VNom, T: p.TNom + 40}}, vtEnvs...)
			for _, env := range envs {
				requireAccessorsMatchReference(t, d, env)
			}
		}
	})

	// The nominal drive terms are cached per die, pinned to Vth: a device
	// mutated between two swept reads must get a fresh term in every later
	// read, at a new environment or at the one read before the mutation.
	t.Run("Vth mutated between swept builds", func(t *testing.T) {
		d := testDie(t, 43)
		first, second := Env{V: 1.08, T: 25}, Env{V: 1.20, T: 65}
		requireAccessorsMatchReference(t, d, first)
		d.Devices[9].Vth += 0.03
		requireAccessorsMatchReference(t, d, second)
		into, err := d.DelaysIntoPS(make([]float64, d.NumDevices()), first)
		if err != nil {
			t.Fatal(err)
		}
		requireReference(t, d, first, "DelaysIntoPS at the pre-mutation environment", into)
	})

	// A die refabricated over warm drive terms shares none of them with its
	// predecessor.
	t.Run("refabricated through NewDieInto", func(t *testing.T) {
		d := testDie(t, 44)
		for _, env := range vtEnvs {
			requireAccessorsMatchReference(t, d, env)
		}
		p := d.Params
		p.VthTempCoeff *= 2
		if _, err := NewDieInto(d, p, 16, 16, rngx.New(45)); err != nil {
			t.Fatal(err)
		}
		for _, env := range vtEnvs {
			requireAccessorsMatchReference(t, d, env)
		}
	})
}

// FuzzEnvFactor checks the environment factor over arbitrary parameters,
// threshold voltages and environments. For every Params that Validate
// accepts, the factor at the nominal environment is exactly 1, and every
// accessor is bit-identical to the four-pow reference wherever the
// reference's nominal delay is finite and non-zero (x/x is 1 only there;
// outside it the reference divides by a degenerate nominal delay).
func FuzzEnvFactor(f *testing.F) {
	add := func(p Params, vth float64, env Env) {
		f.Add(p.NominalDelayPS, p.SystematicAmp, p.RandomSigma, p.VNom, p.TNom, p.Alpha,
			p.VthNom, p.VthSigma, p.VthTempCoeff, p.MobilityExp, vth, env.V, env.T)
	}
	def := DefaultParams()
	for _, env := range vtEnvs {
		add(def, def.VthNom, env)
	}
	add(def, 1.19, Env{V: 1.08, T: 45}) // overdrive clamped at nominal
	// Parameters an earlier Validate accepted although they give NaN, zero
	// or infinite delays.
	for _, mutate := range []func(*Params){
		func(p *Params) { p.Alpha = math.NaN() },
		func(p *Params) { p.VthTempCoeff = math.Inf(1) },
		func(p *Params) { p.VNom = math.Inf(1) },
		func(p *Params) { p.VNom, p.VthNom = 0, -0.1 },
		func(p *Params) { p.TNom = -300 },
		func(p *Params) { p.RandomSigma = math.NaN() },
	} {
		p := DefaultParams()
		mutate(&p)
		add(p, p.VthNom, Env{V: 0.98, T: 65})
	}
	f.Fuzz(func(t *testing.T, nominalDelay, sysAmp, randSigma, vNom, tNom, alpha,
		vthNom, vthSigma, vthCoeff, mobExp, vth, v, temp float64) {
		p := Params{
			NominalDelayPS: nominalDelay, SystematicAmp: sysAmp, RandomSigma: randSigma,
			VNom: vNom, TNom: tNom, Alpha: alpha, VthNom: vthNom, VthSigma: vthSigma,
			VthTempCoeff: vthCoeff, MobilityExp: mobExp,
		}
		if p.Validate() != nil {
			return
		}
		d, err := NewDie(p, 2, 2, rngx.New(1))
		if err != nil {
			t.Fatal(err)
		}
		check := func() {
			for i, dev := range d.Devices {
				if factor := d.envFactor(dev.Vth, p.nominal()); factor != 1 {
					t.Fatalf("device %d: nominal factor %v, want exactly 1", i, factor)
				}
			}
			for _, dev := range d.Devices {
				if nd := refDelay(p, dev.Vth, p.VNom, p.TNom); nd == 0 || math.IsNaN(nd) || math.IsInf(nd, 0) {
					return
				}
			}
			requireAccessorsMatchReference(t, d, Env{V: v, T: temp})
			requireAccessorsMatchReference(t, d, p.nominal())
		}
		d.Devices[0].Vth = vth
		check()
		// Refabricate over the warm drive terms.
		if _, err := NewDieInto(d, p, 2, 2, rngx.New(2)); err != nil {
			t.Fatal(err)
		}
		d.Devices[1].Vth = vth
		check()
	})
}
