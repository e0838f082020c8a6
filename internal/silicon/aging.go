package silicon

import (
	"fmt"
	"math"
)

// Aging models long-term transistor wearout (BTI/HCI-style drift): device
// delay grows sublinearly with stress time, with a per-device random
// sensitivity. PUFs built on marginal delay differences degrade as devices
// age at different rates; the configurable PUF's enrolled margins buy
// headroom against that drift. (Aging is an extension beyond the paper's
// evaluation; see the "aging" experiment.)
type Aging struct {
	// Years of operation since enrollment.
	Years float64
	// Activity is the switching-activity factor in [0, 1]; ring
	// oscillators toggle continuously, so 1 is the realistic value while
	// enrolled-but-idle devices age slower.
	Activity float64
}

// Validate checks the stress parameters.
func (a Aging) Validate() error {
	if a.Years < 0 {
		return fmt.Errorf("silicon: negative aging time %g", a.Years)
	}
	if a.Activity < 0 || a.Activity > 1 {
		return fmt.Errorf("silicon: activity factor %g outside [0,1]", a.Activity)
	}
	return nil
}

// Aging model constants: a heavily used 90 nm-class device slows by about
// agingMagnitude·t^agingExponent (t in years), i.e. ~1.5% after one year
// and ~2.4% after ten, modulated per device by ±agingSpread.
const (
	agingMagnitude = 0.015
	agingExponent  = 0.2
	agingSpread    = 0.30
)

// agingFactorVth returns the multiplicative delay drift for a device with
// the given fabricated threshold voltage. The per-device sensitivity is
// derived deterministically from the Vth deviation, so aging needs no
// extra stored state: devices with lower Vth stress harder (higher
// overdrive).
func (d *Die) agingFactorVth(vth float64, a Aging) float64 {
	if a.Years == 0 || a.Activity == 0 {
		return 1
	}
	norm := (d.Params.VthNom - vth) / maxf(d.Params.VthSigma, 1e-9)
	sens := 1 + agingSpread*math.Tanh(norm)
	drift := agingMagnitude * math.Pow(a.Years*a.Activity, agingExponent) * sens
	return 1 + drift
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// AgedDelayAtPS returns the delay of device dev under env after the given
// aging stress, in picoseconds (circuit stages hold Device copies).
func (d *Die) AgedDelayAtPS(dev Device, env Env, a Aging) (float64, error) {
	if err := a.Validate(); err != nil {
		return 0, err
	}
	return d.DelayAtPS(dev, env) * d.agingFactorVth(dev.Vth, a), nil
}
