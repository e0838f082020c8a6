// Package silicon models the fabrication-time process variation and the
// environmental (supply voltage / temperature) behaviour of CMOS delay
// elements. It is the substrate that stands in for the paper's FPGA boards:
// every RO frequency and every inverter delay in this repository ultimately
// comes from a silicon.Die.
//
// The model captures the three effects the paper's experiments depend on:
//
//  1. Systematic process variation — a smooth 2-D surface across the die
//     (random per-die polynomial + gradient). This is what makes raw PUF
//     bits fail the NIST tests until the regression distiller removes it.
//  2. Random (local) process variation — i.i.d. Gaussian perturbations of
//     each device's base delay and threshold voltage. This is the entropy
//     source that makes PUF responses unique per chip.
//  3. Environment dependence — the alpha-power-law delay model
//     (Sakurai–Newton): delay ∝ V / (V − Vth)^α, with mobility degrading as
//     (T/T₀)^m and Vth decreasing with temperature. Because each device has
//     its own Vth, devices respond *differently* to V/T changes, which is
//     exactly the mechanism that flips marginal PUF bits.
package silicon

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ropuf/internal/rngx"
)

// Env is an operating environment: supply voltage in volts and junction
// temperature in degrees Celsius.
type Env struct {
	V float64 // supply voltage [V]
	T float64 // temperature [°C]
}

// Nominal is the enrollment environment used throughout the paper:
// 1.20 V and 25 °C.
var Nominal = Env{V: 1.20, T: 25}

// Params configures the process and environment model. Zero value is not
// usable; start from DefaultParams.
type Params struct {
	// NominalDelayPS is the mean delay of one device (one inverter, or one
	// MUX path) at the nominal environment, in picoseconds.
	NominalDelayPS float64

	// SystematicAmp is the peak-to-peak scale of the smooth inter-die /
	// intra-die systematic variation surface, as a fraction of nominal
	// delay. FPGA measurements put systematic variation at several percent.
	SystematicAmp float64

	// RandomSigma is the standard deviation of the per-device random delay
	// variation, as a fraction of nominal delay.
	RandomSigma float64

	// VNom and TNom define the environment at which Base delays are quoted.
	VNom float64 // [V]
	TNom float64 // [°C]

	// Alpha is the velocity-saturation exponent of the alpha-power-law
	// delay model. ~1.3 for deep-submicron CMOS.
	Alpha float64

	// VthNom is the nominal threshold voltage [V]; VthSigma the per-device
	// random Vth spread [V].
	VthNom   float64
	VthSigma float64

	// VthTempCoeff is dVth/dT [V/°C] (negative: Vth drops as T rises).
	VthTempCoeff float64

	// MobilityExp is the exponent m of the (T_K/T0_K)^m mobility
	// degradation term. Positive m means delay grows with temperature
	// (mobility μ ∝ T^−m).
	MobilityExp float64
}

// DefaultParams returns parameters loosely calibrated to a 90 nm FPGA
// process (Spartan-3E class): ~200 ps per LUT-implemented inverter stage,
// a few percent systematic variation, ~1 % random variation.
func DefaultParams() Params {
	return Params{
		NominalDelayPS: 200,
		SystematicAmp:  0.04,
		RandomSigma:    0.012,
		VNom:           1.20,
		TNom:           25,
		Alpha:          1.3,
		VthNom:         0.45,
		VthSigma:       0.012,
		VthTempCoeff:   -0.0012,
		MobilityExp:    1.5,
	}
}

// Validate reports whether the parameters are physically meaningful.
func (p Params) Validate() error {
	for _, v := range [...]float64{p.NominalDelayPS, p.SystematicAmp, p.RandomSigma, p.VNom, p.TNom,
		p.Alpha, p.VthNom, p.VthSigma, p.VthTempCoeff, p.MobilityExp} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("silicon: parameters must be finite, got %+v", p)
		}
	}
	switch {
	case p.NominalDelayPS <= 0:
		return fmt.Errorf("silicon: NominalDelayPS must be positive, got %g", p.NominalDelayPS)
	case p.RandomSigma < 0 || p.SystematicAmp < 0 || p.VthSigma < 0:
		return fmt.Errorf("silicon: variation magnitudes must be non-negative")
	case p.VNom <= 0:
		return fmt.Errorf("silicon: nominal supply must be positive, got %g V", p.VNom)
	case p.VNom <= p.VthNom:
		return fmt.Errorf("silicon: nominal supply %g V must exceed nominal Vth %g V", p.VNom, p.VthNom)
	case p.TNom <= -273.15:
		return fmt.Errorf("silicon: nominal temperature %g °C is not above absolute zero", p.TNom)
	case p.Alpha <= 0:
		return fmt.Errorf("silicon: Alpha must be positive, got %g", p.Alpha)
	}
	return nil
}

// Device is one delay element (an inverter or one MUX path) on a die.
type Device struct {
	// X, Y are the device's grid coordinates, used by the systematic
	// surface and by the distiller.
	X, Y int

	// Base is the device delay at the nominal environment, in picoseconds,
	// including both systematic and random process variation.
	Base float64

	// Vth is the device's threshold voltage at the nominal temperature [V].
	Vth float64
}

// surface holds one die's systematic-variation polynomial:
// sys(u, v) = c0 + c1·u + c2·v + c3·u² + c4·v² + c5·u·v
// with u, v ∈ [−1, 1] the normalized die coordinates.
type surface struct {
	c [6]float64
}

func (s surface) at(u, v float64) float64 {
	return s.c[0] + s.c[1]*u + s.c[2]*v + s.c[3]*u*u + s.c[4]*v*v + s.c[5]*u*v
}

// envTable is an immutable per-environment snapshot of every device's
// environment factor (delay(env)/delay(nominal)); a delay is the device's
// Base times its factor. A swept table costs one math.Pow per device to
// build, plus one per device for the die's first swept table (the nominal
// drive terms); a nominal table costs none. Once built, any number of
// delay queries under that environment are a multiply each.
type envTable struct {
	env Env
	// vth pins the threshold voltages the factors were computed from, so
	// lookups can detect a stale entry if a caller mutated Devices.
	vth     []float64
	factors []float64
}

// maxEnvTables bounds the per-die table store. A V/T sweep visits a few
// dozen environments; past the cap the store resets generationally (sweeps
// revisit environments in runs, so the freshly cached entries are the ones
// about to be reused).
const maxEnvTables = 64

// Die is a fabricated chip: a W×H grid of devices sharing one systematic
// variation surface. A Die caches per-environment factor tables (see
// DelaysIntoPS); the cache is safe for concurrent use, so rings sharing a die
// may be measured from multiple goroutines. Devices is exported for
// inspection; mutating Base is always safe (factors do not depend on it),
// while mutating Vth is detected per lookup and falls back to a direct
// recomputation.
type Die struct {
	Params  Params
	W, H    int
	Devices []Device
	surf    surface

	// current is the most recently used environment table; the hot paths
	// check only this pointer. tables retains every built table (bounded by
	// maxEnvTables) so alternating environments promote instead of rebuild.
	current atomic.Pointer[envTable]
	mu      sync.Mutex
	tables  map[Env]*envTable
	// nomVth/nomDrive cache each device's nominal drive term (envFactor's
	// denominator) for swept table builds, pinned to the Vth it was
	// computed from like the tables are. Guarded by mu.
	nomVth, nomDrive []float64
}

// NewDie fabricates a die with w×h devices using the supplied process
// parameters and randomness source. Fabrication is deterministic given the
// RNG state.
func NewDie(p Params, w, h int, rng *rngx.RNG) (*Die, error) {
	return NewDieInto(nil, p, w, h, rng)
}

// NewDieInto is NewDie fabricating into d's storage, for callers that
// fabricate one die after another: it overwrites d.Devices in place
// (reallocating only when the grid outgrows them) and drops every table
// and term d cached, so the result shares nothing with the old die. A nil
// d allocates a new die. d must not be in use by another goroutine, and
// pointers into its old Devices now see the new die's devices. On error d
// is left unchanged.
func NewDieInto(d *Die, p Params, w, h int, rng *rngx.RNG) (*Die, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("silicon: die dimensions must be positive, got %dx%d", w, h)
	}
	if d == nil {
		d = new(Die)
	}
	if cap(d.Devices) < w*h {
		d.Devices = make([]Device, w*h)
	}
	d.Params, d.W, d.H, d.Devices = p, w, h, d.Devices[:w*h]
	d.current.Store(nil)
	d.tables, d.nomVth, d.nomDrive = nil, nil, nil
	// Per-die systematic surface. The constant term models die-to-die mean
	// shift; the polynomial terms model intra-die spatial gradients.
	for i := range d.surf.c {
		d.surf.c[i] = rng.NormMeanStd(0, p.SystematicAmp/2)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			u := normCoord(x, w)
			v := normCoord(y, h)
			sys := d.surf.at(u, v)
			rnd := rng.NormMeanStd(0, p.RandomSigma)
			base := p.NominalDelayPS * (1 + sys + rnd)
			if base <= 0 {
				// Astronomically unlikely with sane params; clamp rather
				// than fabricate acausal devices.
				base = p.NominalDelayPS * 0.01
			}
			vth := p.VthNom + rng.NormMeanStd(0, p.VthSigma)
			d.Devices[y*w+x] = Device{X: x, Y: y, Base: base, Vth: vth}
		}
	}
	return d, nil
}

// normCoord maps grid index i of n to [−1, 1].
func normCoord(i, n int) float64 {
	if n == 1 {
		return 0
	}
	return 2*float64(i)/float64(n-1) - 1
}

// NumDevices returns the number of devices on the die.
func (d *Die) NumDevices() int { return len(d.Devices) }

// Device returns device i (row-major order).
func (d *Die) Device(i int) *Device { return &d.Devices[i] }

// nominal returns the environment at which Base delays are quoted.
func (p Params) nominal() Env { return Env{V: p.VNom, T: p.TNom} }

// drive returns env.V/(env.V − Vth(env.T))^α, the alpha-power-law delay
// without its mobility term, for a device whose threshold voltage at the
// nominal temperature is vth.
func (p Params) drive(vth float64, env Env) float64 {
	vthT := vth + p.VthTempCoeff*(env.T-p.TNom)
	overdrive := env.V - vthT
	if overdrive < 0.02 {
		// Near/below threshold the alpha-power law diverges; clamp the
		// overdrive so extreme sweep points stay finite (delay becomes
		// very large, which is the physically right direction).
		overdrive = 0.02
	}
	return env.V / pow(overdrive, p.Alpha)
}

// mobility returns the (T/T₀)^m mobility term of env, which every device
// shares (μ ∝ T^−m ⇒ delay ∝ T^m).
func (p Params) mobility(env Env) float64 {
	return pow((env.T+273.15)/(p.TNom+273.15), p.MobilityExp)
}

// envFactor returns the ratio delay(env)/delay(nominal) for a device with
// threshold voltage vth, following the alpha-power law with
// temperature-dependent Vth and mobility. At the nominal environment the
// ratio is the nominal drive divided by itself, exactly 1 for any finite
// non-zero drive, so it returns 1 without a math.Pow (Base is the nominal
// delay by definition); elsewhere it costs three. The nominal mobility
// term is pow(1, m) == 1, so the denominator omits it.
func (d *Die) envFactor(vth float64, env Env) float64 {
	p := d.Params
	if env == p.nominal() {
		return 1
	}
	return p.drive(vth, env) * p.mobility(env) / p.drive(vth, p.nominal())
}

// pow is math.Pow specialized to positive bases (documents intent; the
// callers guarantee positivity).
func pow(base, exp float64) float64 {
	if base <= 0 {
		return 0
	}
	return math.Pow(base, exp)
}

// nominalDrives returns every device's nominal drive term from the die's
// cache, computing the entries whose pinned Vth no longer matches the
// device's. d.mu must be held.
func (d *Die) nominalDrives() []float64 {
	fresh := len(d.nomDrive) != len(d.Devices)
	if fresh {
		d.nomVth = make([]float64, len(d.Devices))
		d.nomDrive = make([]float64, len(d.Devices))
	}
	for i := range d.Devices {
		if vth := d.Devices[i].Vth; fresh || d.nomVth[i] != vth {
			d.nomVth[i], d.nomDrive[i] = vth, d.Params.drive(vth, d.Params.nominal())
		}
	}
	return d.nomDrive
}

// envTableFor returns the (possibly freshly built) factor table for env and
// promotes it to the current slot. A swept table computes envFactor with
// its shared terms hoisted: the mobility term once per table and the
// nominal drives from the per-die cache, in envFactor's multiply order.
func (d *Die) envTableFor(env Env) *envTable {
	if t := d.current.Load(); t != nil && t.env == env {
		return t
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if t, ok := d.tables[env]; ok {
		d.current.Store(t)
		return t
	}
	t := &envTable{
		env:     env,
		vth:     make([]float64, len(d.Devices)),
		factors: make([]float64, len(d.Devices)),
	}
	p := d.Params
	var mob float64
	var nom []float64
	swept := env != p.nominal()
	if swept {
		mob, nom = p.mobility(env), d.nominalDrives()
	}
	for i := range d.Devices {
		dev := &d.Devices[i]
		t.vth[i] = dev.Vth
		t.factors[i] = 1
		if swept {
			t.factors[i] = p.drive(dev.Vth, env) * mob / nom[i]
		}
	}
	if d.tables == nil || len(d.tables) >= maxEnvTables {
		d.tables = make(map[Env]*envTable, 8)
	}
	d.tables[env] = t
	d.current.Store(t)
	return t
}

// EnvFactors returns the per-device environment-factor table for env
// (factor i is delay(env)/delay(nominal) for device i), building and
// caching it on first use. The returned slice is shared and must not be
// mutated.
func (d *Die) EnvFactors(env Env) []float64 {
	return d.envTableFor(env).factors
}

// DelaysIntoPS fills dst with every device's delay under env, in
// picoseconds, and returns dst. It is the board-major bulk accessor behind
// measure.BoardMeter: one call pins a single cached environment table for
// the whole die (building it on first use) and performs zero allocations
// on the warm path. Each entry is validated against the device's current
// Vth — a device mutated after the table was built falls back to a direct
// recomputation, which is bit-identical to per-device DelayPS calls —
// so concurrent readers may share a die while a sweep is in flight.
// At the nominal environment every delay is its Base, so the call copies
// Base and neither builds nor caches a table: a fresh die's nominal
// read allocates nothing. len(dst) must equal NumDevices.
func (d *Die) DelaysIntoPS(dst []float64, env Env) ([]float64, error) {
	if len(dst) != len(d.Devices) {
		return nil, fmt.Errorf("silicon: DelaysIntoPS dst has %d entries, die has %d devices", len(dst), len(d.Devices))
	}
	if env == d.Params.nominal() {
		for i := range d.Devices {
			dst[i] = d.Devices[i].Base
		}
		return dst, nil
	}
	t := d.envTableFor(env)
	for i := range d.Devices {
		dev := &d.Devices[i]
		if t.vth[i] == dev.Vth {
			dst[i] = dev.Base * t.factors[i]
		} else {
			dst[i] = dev.Base * d.envFactor(dev.Vth, env)
		}
	}
	return dst, nil
}

// DelayPS returns the delay of device i under the given environment, in
// picoseconds. It panics if i is out of range. When the die's current
// cached environment matches env the lookup is a multiply; otherwise the
// factor is recomputed directly (a point query does not build a table —
// call EnvFactors to warm one).
func (d *Die) DelayPS(i int, env Env) float64 {
	dev := &d.Devices[i]
	if t := d.current.Load(); t != nil && t.env == env && t.vth[i] == dev.Vth {
		return dev.Base * t.factors[i]
	}
	return dev.Base * d.envFactor(dev.Vth, env)
}

// DelayAtPS is DelayPS for an explicit device value (used by circuit stages
// that hold Device copies rather than indices). The cached factor is looked
// up by the device's grid coordinates; the stored Vth must match exactly —
// and the factor depends only on (Vth, env) — so a hit is bit-identical to
// the direct computation and any mismatch (foreign or mutated device) falls
// back to computing from scratch.
func (d *Die) DelayAtPS(dev Device, env Env) float64 {
	if t := d.current.Load(); t != nil && t.env == env {
		if i := dev.Y*d.W + dev.X; i >= 0 && i < len(t.vth) && t.vth[i] == dev.Vth {
			return dev.Base * t.factors[i]
		}
	}
	return dev.Base * d.envFactor(dev.Vth, env)
}

// DelayAtUncachedPS is DelayAtPS with the environment-factor cache
// bypassed: it always recomputes the alpha-power-law factor (three
// math.Pow calls off nominal, none at nominal). It is the reference path
// for the *Naive measurement implementations and for equivalence tests;
// results are bit-identical to the cached accessors.
func (d *Die) DelayAtUncachedPS(dev Device, env Env) float64 {
	return dev.Base * d.envFactor(dev.Vth, env)
}
