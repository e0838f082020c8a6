package core

import (
	"errors"
	"fmt"

	"ropuf/internal/bits"
)

// Mode selects which variant of the configurable RO PUF to build.
type Mode int

const (
	// Case1 shares one configuration vector between the two rings of each
	// pair.
	Case1 Mode = iota + 1
	// Case2 allows independent configuration vectors with equal selected
	// stage counts.
	Case2
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Case1:
		return "Case-1"
	case Case2:
		return "Case-2"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Select dispatches to SelectCase1 or SelectCase2. Its one allocation is
// the 2·len(alpha) bools of the two configurations.
func Select(mode Mode, alpha, beta []float64, opt Options) (Selection, error) {
	return selectInto(make([]bool, 2*len(alpha)), mode, alpha, beta, opt)
}

// selectInto is Select writing the configurations into cfg, exactly
// 2·len(alpha) zeroed bools with no spare capacity: X is cfg[:n:n] and Y
// is cfg[n:], so each capacity ends at its length and an append to either
// configuration copies it out.
func selectInto(cfg []bool, mode Mode, alpha, beta []float64, opt Options) (Selection, error) {
	switch mode {
	case Case1:
		return selectCase1(alpha, beta, opt, cfg)
	case Case2:
		return selectCase2(alpha, beta, opt, cfg)
	default:
		return Selection{}, fmt.Errorf("core: unknown mode %d", int(mode))
	}
}

// Pair holds one PUF pair's measured per-stage delay differences: Alpha for
// the top ring, Beta for the bottom ring. Units are arbitrary but must be
// consistent across a device (picoseconds for circuit-level data, periods
// for the RO-granularity datasets).
type Pair struct {
	Alpha, Beta []float64
}

// Enrollment is a configured PUF device: one Selection per enrolled pair
// plus the enrolled response bits. Pairs whose margin fell below the
// enrollment threshold are masked out (Mask[i] == false) and contribute no
// bit — this masking replaces the ECC circuitry of conventional designs.
type Enrollment struct {
	Mode       Mode
	Threshold  float64
	Selections []Selection
	Mask       []bool
	Response   *bits.Stream
}

// Enroll configures every pair and extracts the enrolled response.
// Pairs with margin < threshold are masked. threshold 0 keeps every pair
// (margins are non-negative). Degenerate pairs (ErrDegenerate) are masked
// rather than failing the whole device. The configurations of all pairs
// share one allocation, pair i taking the next 2·len(pairs[i].Alpha) bools
// of it whatever its outcome.
func Enroll(pairs []Pair, mode Mode, threshold float64, opt Options) (*Enrollment, error) {
	if len(pairs) == 0 {
		return nil, errors.New("core: Enroll with no pairs")
	}
	if !(threshold >= 0) {
		return nil, fmt.Errorf("core: enrollment threshold %g, want a non-negative number", threshold)
	}
	stages := 0
	for _, p := range pairs {
		stages += len(p.Alpha)
	}
	cfg := make([]bool, 2*stages)
	e := &Enrollment{
		Mode:       mode,
		Threshold:  threshold,
		Selections: make([]Selection, len(pairs)),
		Mask:       make([]bool, len(pairs)),
		Response:   bits.New(len(pairs)),
	}
	for i, p := range pairs {
		n := 2 * len(p.Alpha)
		sel, err := selectInto(cfg[:n:n], mode, p.Alpha, p.Beta, opt)
		cfg = cfg[n:]
		if errors.Is(err, ErrDegenerate) {
			continue // masked
		}
		if err != nil {
			return nil, fmt.Errorf("core: pair %d: %w", i, err)
		}
		e.Selections[i] = sel
		if sel.Margin >= threshold {
			e.Mask[i] = true
			e.Response.Append(sel.Bit)
		}
	}
	if e.Response.Len() == 0 {
		return nil, errors.New("core: enrollment produced no bits (threshold too high?)")
	}
	return e, nil
}

// NumBits returns the number of unmasked (usable) bits.
func (e *Enrollment) NumBits() int { return e.Response.Len() }

// Evaluate regenerates the response from fresh measurements of the same
// pairs (same order), using the enrolled configurations and mask. This is
// the runtime path: configurations are frozen, only ring delays are
// re-measured.
func (e *Enrollment) Evaluate(pairs []Pair) (*bits.Stream, error) {
	if len(pairs) != len(e.Selections) {
		return nil, fmt.Errorf("core: Evaluate pair count %d, enrolled %d", len(pairs), len(e.Selections))
	}
	out := bits.New(e.Response.Len())
	for i, p := range pairs {
		if !e.Mask[i] {
			continue
		}
		bit, _, err := e.Selections[i].Evaluate(p.Alpha, p.Beta)
		if err != nil {
			return nil, fmt.Errorf("core: pair %d: %w", i, err)
		}
		out.Append(bit)
	}
	return out, nil
}

// BitFlips counts positions where a regenerated response differs from the
// enrolled one.
func (e *Enrollment) BitFlips(regenerated *bits.Stream) (int, error) {
	return bits.HammingDistance(e.Response, regenerated)
}
