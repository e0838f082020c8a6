// Package circuit implements the configurable ring oscillator of the
// paper's Figures 1 and 2 at the delay-unit level.
//
// A DelayUnit is one stage: an inverter followed by a 2-to-1 MUX. When the
// stage's selection bit is 1 the signal passes through the inverter and the
// MUX "1" path (delay d + d1); when it is 0 the inverter is bypassed and
// the signal takes the MUX "0" path (delay d0). The stage's contribution to
// the ring delay therefore differs by
//
//	ddiff = d + d1 − d0
//
// between the selected and bypassed configurations — the quantity the
// paper's selection algorithms maximize over.
//
// A Ring is a chain of delay units closed through an enable stage (a NAND
// gate in real implementations, which also supplies the extra logical
// inversion that keeps the loop oscillating when an even number of
// inverters is selected).
package circuit

import (
	"fmt"

	"ropuf/internal/silicon"
)

// Config is a configuration vector: Config[i] selects (true) or bypasses
// (false) the inverter of stage i.
type Config []bool

// NewConfig returns an all-zero configuration of length n.
func NewConfig(n int) Config { return make(Config, n) }

// AllSelected returns a configuration with every stage selected.
func AllSelected(n int) Config {
	c := make(Config, n)
	for i := range c {
		c[i] = true
	}
	return c
}

// Ones returns the number of selected stages.
func (c Config) Ones() int {
	n := 0
	for _, b := range c {
		if b {
			n++
		}
	}
	return n
}

// String renders the vector as '1'/'0' characters, stage 0 first, matching
// the paper's notation ("110" selects stages 0 and 1 of a 3-stage ring).
func (c Config) String() string {
	b := make([]byte, len(c))
	for i, v := range c {
		if v {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// ParseConfig parses a '1'/'0' string into a Config.
func ParseConfig(s string) (Config, error) {
	c := make(Config, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '1':
			c[i] = true
		case '0':
			c[i] = false
		default:
			return nil, fmt.Errorf("circuit: invalid configuration character %q", s[i])
		}
	}
	return c, nil
}

// DelayUnit is one configurable stage, holding the three delay elements of
// Fig. 2 as devices on a die: the inverter and the two MUX paths.
type DelayUnit struct {
	Die      *silicon.Die
	Inverter silicon.Device
	Path1    silicon.Device // MUX propagation when select = 1 (includes wiring)
	Path0    silicon.Device // MUX propagation when select = 0 (bypass wire)
}

// DelayPS returns the stage's delay for the given selection bit and
// environment, in picoseconds.
func (u *DelayUnit) DelayPS(selected bool, env silicon.Env) float64 {
	if selected {
		return u.Die.DelayAtPS(u.Inverter, env) + u.Die.DelayAtPS(u.Path1, env)
	}
	return u.Die.DelayAtPS(u.Path0, env)
}

// DdiffPS returns the stage's true delay difference d + d1 − d0 under env.
// The measurement protocol in package measure estimates this quantity from
// whole-ring observations; this accessor is the ground truth used by tests.
func (u *DelayUnit) DdiffPS(env silicon.Env) float64 {
	return u.DelayPS(true, env) - u.DelayPS(false, env)
}

// Ring is a configurable ring oscillator: an enable stage plus n delay
// units.
type Ring struct {
	Units []DelayUnit
	// Enable is the always-in-loop enable gate (NAND). It contributes a
	// fixed delay and one logical inversion.
	Enable silicon.Device
	Die    *silicon.Die
}

// NumStages returns the number of configurable delay units in the ring.
func (r *Ring) NumStages() int { return len(r.Units) }

// validateConfig checks cfg length against the ring.
func (r *Ring) validateConfig(cfg Config) error {
	if len(cfg) != len(r.Units) {
		return fmt.Errorf("circuit: configuration length %d does not match %d stages", len(cfg), len(r.Units))
	}
	return nil
}

// HalfPeriodPS returns the one-way propagation delay around the loop under
// cfg and env, in picoseconds. The oscillation period is twice this (the
// edge must travel the loop once per half-cycle).
func (r *Ring) HalfPeriodPS(cfg Config, env silicon.Env) (float64, error) {
	if err := r.validateConfig(cfg); err != nil {
		return 0, err
	}
	sum := r.Die.DelayAtPS(r.Enable, env)
	for i := range r.Units {
		sum += r.Units[i].DelayPS(cfg[i], env)
	}
	return sum, nil
}

// StageDelaysPS fills sel1 and sel0 (each of length NumStages) with every
// stage's selected and bypassed delay under env, in picoseconds, and
// returns the enable gate's delay. It is the bulk primitive behind the
// incremental leave-one-out measurement in package measure. sel1[i] is
// bit-identical to Units[i].DelayPS(true, env) and sel0[i] to
// Units[i].DelayPS(false, env).
func (r *Ring) StageDelaysPS(env silicon.Env, sel1, sel0 []float64) (float64, error) {
	if len(sel1) != len(r.Units) || len(sel0) != len(r.Units) {
		return 0, fmt.Errorf("circuit: stage-delay buffer lengths %d/%d do not match %d stages",
			len(sel1), len(sel0), len(r.Units))
	}
	for i := range r.Units {
		u := &r.Units[i]
		sel1[i] = r.Die.DelayAtPS(u.Inverter, env) + r.Die.DelayAtPS(u.Path1, env)
		sel0[i] = r.Die.DelayAtPS(u.Path0, env)
	}
	return r.Die.DelayAtPS(r.Enable, env), nil
}

// PeriodPS returns the oscillation period under cfg and env in picoseconds.
// The value is well-defined even for non-oscillating (even-inversion)
// configurations; it is then the period the ring would have with an ideal
// enable inversion, which is the idealization the paper's measurement
// arithmetic uses.
func (r *Ring) PeriodPS(cfg Config, env silicon.Env) (float64, error) {
	hp, err := r.HalfPeriodPS(cfg, env)
	if err != nil {
		return 0, err
	}
	return 2 * hp, nil
}

// TrueDdiffsPS returns the ground-truth per-stage delay differences under
// env. Tests compare the measurement protocol's estimates against this.
func (r *Ring) TrueDdiffsPS(env silicon.Env) []float64 {
	out := make([]float64, len(r.Units))
	for i := range r.Units {
		out[i] = r.Units[i].DdiffPS(env)
	}
	return out
}

// Builder assembles rings from consecutive devices on a die. Each stage
// consumes three devices (inverter, MUX path-1, MUX path-0) and the ring
// one more for the enable gate, mirroring how a placer would map the
// structure onto adjacent fabric cells.
type Builder struct {
	Die  *silicon.Die
	next int
}

// NewBuilder returns a Builder allocating devices from die sequentially.
func NewBuilder(die *silicon.Die) *Builder { return &Builder{Die: die} }

// take returns the next unallocated device.
func (b *Builder) take() (silicon.Device, error) {
	if b.next >= b.Die.NumDevices() {
		return silicon.Device{}, fmt.Errorf("circuit: die exhausted after %d devices", b.next)
	}
	dev := *b.Die.Device(b.next)
	b.next++
	return dev, nil
}

// BuildRing allocates an n-stage configurable ring. MUX path delays are a
// fixed fraction of an inverter delay: the same die-wide variation model
// applies, scaled by muxScale (path-1) and wireScale (path-0).
func (b *Builder) BuildRing(n int, muxScale, wireScale float64) (*Ring, error) {
	if n <= 0 {
		return nil, fmt.Errorf("circuit: ring must have at least one stage, got %d", n)
	}
	if muxScale <= 0 || wireScale <= 0 {
		return nil, fmt.Errorf("circuit: MUX/wire delay scales must be positive")
	}
	r := &Ring{Die: b.Die, Units: make([]DelayUnit, n)}
	en, err := b.take()
	if err != nil {
		return nil, err
	}
	r.Enable = en
	for i := 0; i < n; i++ {
		inv, err := b.take()
		if err != nil {
			return nil, err
		}
		p1, err := b.take()
		if err != nil {
			return nil, err
		}
		p0, err := b.take()
		if err != nil {
			return nil, err
		}
		p1.Base *= muxScale
		p0.Base *= wireScale
		r.Units[i] = DelayUnit{Die: b.Die, Inverter: inv, Path1: p1, Path0: p0}
	}
	return r, nil
}

// DefaultMuxScale and DefaultWireScale are the default ratios of MUX-path
// and bypass-wire delay to one inverter delay. A LUT-implemented MUX has
// delay comparable to an inverter; the bypass path is slightly faster.
const (
	DefaultMuxScale  = 0.60
	DefaultWireScale = 0.50
)
