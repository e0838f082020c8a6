// Package dataset generates and loads the two data sources the paper's
// evaluation uses, as synthetic equivalents produced by the silicon model:
//
//   - A Virginia-Tech-style RO dataset: 198 Spartan-3E-class boards with
//     512 ring oscillators each. 193 "population" boards are measured only
//     at the nominal condition (1.20 V, 25 °C); 5 "environment" boards are
//     additionally swept over supply voltages {0.98, 1.08, 1.20, 1.32,
//     1.44} V and temperatures {25, 35, 45, 55, 65} °C. The paper uses 194
//     nominal boards; our generator emits 198 with the same split so the
//     loader can select any subset.
//
//   - An in-house-style inverter-level dataset: 9 Virtex-5-class boards,
//     each carrying 64 thirteen-stage configurable rings whose per-stage
//     delay differences are obtained through the package measure
//     leave-one-out protocol (i.e. with realistic measurement error), plus
//     live circuit rings so experiments can re-measure under any
//     environment.
//
// Both generators are deterministic functions of a seed.
package dataset

import (
	"cmp"
	"fmt"
	"slices"

	"ropuf/internal/silicon"
)

// Condition is an operating point encoded with integer keys so it can be
// used as a map key without floating-point equality hazards.
type Condition struct {
	MilliVolts  int // supply voltage in mV, e.g. 1200
	DeciCelsius int // temperature in tenths of °C, e.g. 250
}

// Env converts the condition to the silicon model's environment type.
func (c Condition) Env() silicon.Env {
	return silicon.Env{V: float64(c.MilliVolts) / 1000, T: float64(c.DeciCelsius) / 10}
}

// String renders the condition as e.g. "1.20V/25.0C".
func (c Condition) String() string {
	return fmt.Sprintf("%.2fV/%.1fC", float64(c.MilliVolts)/1000, float64(c.DeciCelsius)/10)
}

// NominalCondition is the enrollment condition used throughout the paper.
var NominalCondition = Condition{MilliVolts: 1200, DeciCelsius: 250}

// VoltageSweep lists the five supply voltages of the environment boards, in
// the paper's order (lowest to highest), all at nominal temperature.
func VoltageSweep() []Condition {
	mv := []int{980, 1080, 1200, 1320, 1440}
	out := make([]Condition, len(mv))
	for i, v := range mv {
		out[i] = Condition{MilliVolts: v, DeciCelsius: 250}
	}
	return out
}

// TemperatureSweep lists the five temperatures of the environment boards
// (including the nominal 25 °C), all at nominal voltage.
func TemperatureSweep() []Condition {
	dc := []int{250, 350, 450, 550, 650}
	out := make([]Condition, len(dc))
	for i, t := range dc {
		out[i] = Condition{MilliVolts: 1200, DeciCelsius: t}
	}
	return out
}

// sweptConditions lists an environment board's conditions in measurement
// order: nominal, then the voltage sweep, then the temperature sweep, each
// condition once. A population board is measured at its first entry only.
var sweptConditions = func() []Condition {
	out := []Condition{NominalCondition}
	for _, c := range append(VoltageSweep(), TemperatureSweep()...) {
		if !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}()

// Board is one FPGA board of the RO-granularity dataset: GridW·GridH ring
// oscillators in the row-major layout silicon.NewDieInto fabricates, so
// RO i sits at (i mod GridW, i div GridW) and Positions derives every
// RO's coordinates from the grid.
type Board struct {
	ID           int
	GridW, GridH int

	// Freq maps a measurement condition to per-RO frequencies in MHz.
	// Every board has at least the NominalCondition entry; environment
	// boards carry the full sweeps.
	Freq map[Condition][]float64
}

// NumROs returns the number of ring oscillators on the board.
func (b *Board) NumROs() int { return b.GridW * b.GridH }

// Positions returns each RO's die coordinates, for the distiller and
// spatial statistics: RO i sits at (xs[i], ys[i]).
func (b *Board) Positions() (xs, ys []int) {
	xs, ys = make([]int, b.NumROs()), make([]int, b.NumROs())
	for i := range xs {
		xs[i], ys[i] = i%b.GridW, i/b.GridW
	}
	return xs, ys
}

// HasCondition reports whether the board was measured under c.
func (b *Board) HasCondition(c Condition) bool {
	_, ok := b.Freq[c]
	return ok
}

// Conditions returns the measured conditions in deterministic order: those
// of sweptConditions in its order, then every other condition by
// (MilliVolts, DeciCelsius).
func (b *Board) Conditions() []Condition {
	out := make([]Condition, 0, len(b.Freq))
	for _, c := range sweptConditions {
		if b.HasCondition(c) {
			out = append(out, c)
		}
	}
	swept := len(out)
	for c := range b.Freq {
		if !slices.Contains(sweptConditions, c) {
			out = append(out, c)
		}
	}
	slices.SortFunc(out[swept:], func(a, c Condition) int {
		return cmp.Or(cmp.Compare(a.MilliVolts, c.MilliVolts), cmp.Compare(a.DeciCelsius, c.DeciCelsius))
	})
	return out
}

// Frequencies returns the per-RO frequencies under c, or an error if the
// board was not measured there.
func (b *Board) Frequencies(c Condition) ([]float64, error) {
	f, ok := b.Freq[c]
	if !ok {
		return nil, fmt.Errorf("dataset: board %d has no measurement at %v", b.ID, c)
	}
	return f, nil
}

// PeriodsPS returns per-RO periods in picoseconds under c (1e6 / MHz).
// The PUF algorithms consume delays, where larger = slower.
func (b *Board) PeriodsPS(c Condition) ([]float64, error) {
	f, err := b.Frequencies(c)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(f))
	for i, v := range f {
		if v <= 0 {
			return nil, fmt.Errorf("dataset: board %d RO %d has non-positive frequency %g", b.ID, i, v)
		}
		out[i] = 1e6 / v
	}
	return out, nil
}

// Dataset is a collection of boards plus bookkeeping about which boards
// carry environment sweeps.
type Dataset struct {
	Name string
	// Boards holds every board; the first NumEnvBoards entries of EnvIDs
	// identify the environment-swept boards.
	Boards []*Board
	EnvIDs []int
}

// Board returns the board with the given ID, or an error.
func (d *Dataset) Board(id int) (*Board, error) {
	for _, b := range d.Boards {
		if b.ID == id {
			return b, nil
		}
	}
	return nil, fmt.Errorf("dataset: no board with ID %d", id)
}

// NominalBoards returns the boards that are *not* environment-swept — the
// population used for randomness/uniqueness experiments (the paper's 194
// fixed-condition boards, less however many the caller trims).
func (d *Dataset) NominalBoards() []*Board {
	env := map[int]bool{}
	for _, id := range d.EnvIDs {
		env[id] = true
	}
	var out []*Board
	for _, b := range d.Boards {
		if !env[b.ID] {
			out = append(out, b)
		}
	}
	return out
}

// EnvBoards returns the environment-swept boards.
func (d *Dataset) EnvBoards() []*Board {
	var out []*Board
	for _, id := range d.EnvIDs {
		if b, err := d.Board(id); err == nil {
			out = append(out, b)
		}
	}
	return out
}
