package circuit

import "ropuf/internal/silicon"

// Aged variants of the delay accessors, for lifetime studies: each device's
// delay is scaled by the silicon aging model before summation.

// AgedDelayPS returns the stage's delay for the selection bit under env
// after the given aging stress.
func (u *DelayUnit) AgedDelayPS(selected bool, env silicon.Env, a silicon.Aging) (float64, error) {
	if selected {
		inv, err := u.Die.AgedDelayAtPS(u.Inverter, env, a)
		if err != nil {
			return 0, err
		}
		p1, err := u.Die.AgedDelayAtPS(u.Path1, env, a)
		if err != nil {
			return 0, err
		}
		return inv + p1, nil
	}
	return u.Die.AgedDelayAtPS(u.Path0, env, a)
}

// AgedDdiffPS returns the stage's delay difference d + d1 − d0 under env
// after aging.
func (u *DelayUnit) AgedDdiffPS(env silicon.Env, a silicon.Aging) (float64, error) {
	sel, err := u.AgedDelayPS(true, env, a)
	if err != nil {
		return 0, err
	}
	byp, err := u.AgedDelayPS(false, env, a)
	if err != nil {
		return 0, err
	}
	return sel - byp, nil
}

// AgedTrueDdiffsPS returns the ground-truth per-stage delay differences
// under env after aging.
func (r *Ring) AgedTrueDdiffsPS(env silicon.Env, a silicon.Aging) ([]float64, error) {
	out := make([]float64, len(r.Units))
	for i := range r.Units {
		v, err := r.Units[i].AgedDdiffPS(env, a)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// AgedHalfPeriodPS returns the one-way loop delay under cfg and env after
// aging.
func (r *Ring) AgedHalfPeriodPS(cfg Config, env silicon.Env, a silicon.Aging) (float64, error) {
	if err := r.validateConfig(cfg); err != nil {
		return 0, err
	}
	sum, err := r.Die.AgedDelayAtPS(r.Enable, env, a)
	if err != nil {
		return 0, err
	}
	for i := range r.Units {
		v, err := r.Units[i].AgedDelayPS(cfg[i], env, a)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}
