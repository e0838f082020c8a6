package dataset

import (
	"fmt"

	"ropuf/internal/measure"
	"ropuf/internal/rngx"
	"ropuf/internal/silicon"
)

// VTConfig parameterizes the Virginia-Tech-style dataset generator.
type VTConfig struct {
	// NumBoards is the total number of boards (paper: 198).
	NumBoards int
	// NumEnvBoards of those are swept over voltage and temperature
	// (paper: 5; they are the last boards by ID).
	NumEnvBoards int
	// GridW × GridH is the RO array layout (paper: 512 ROs; we use 16×32).
	GridW, GridH int
	// Process is the silicon model; Device "Base" delays are interpreted as
	// whole-RO half-periods so that one die device = one RO.
	Process silicon.Params
	// NoiseMHz is the per-reading Gaussian frequency-measurement noise.
	NoiseMHz float64
	// Seed makes generation deterministic.
	Seed uint64
}

// DefaultVTConfig mirrors the published dataset's shape: 198 boards, 512
// ROs each, 5 environment boards, ~96 MHz nominal RO frequency.
//
// The variation magnitudes are calibrated so the paper's qualitative
// results reproduce: systematic variation dominates random variation
// (raw-bit NIST failure), and the voltage sweep moves marginal traditional
// bits but not the margin-maximized configurable bits.
func DefaultVTConfig() VTConfig {
	p := silicon.DefaultParams()
	// One device = one 5-stage RO + counter path: ~96 MHz → 10417 ps period,
	// half-period base ≈ 5208 ps.
	p.NominalDelayPS = 5208
	p.SystematicAmp = 0.035
	p.RandomSigma = 0.010
	p.VthSigma = 0.008
	// The paper's arithmetic uses 194 nominal-only boards *plus* 5
	// environment-swept boards; we generate 199 so that NominalBoards()
	// returns exactly the 194-board population of §IV.A.
	return VTConfig{
		NumBoards:    199,
		NumEnvBoards: 5,
		GridW:        16,
		GridH:        32,
		Process:      p,
		NoiseMHz:     0.01,
		Seed:         0x56545f44415431, // "VT_DAT1"
	}
}

// Validate checks the configuration.
func (c VTConfig) Validate() error {
	switch {
	case c.NumBoards <= 0:
		return fmt.Errorf("dataset: NumBoards must be positive, got %d", c.NumBoards)
	case c.NumEnvBoards < 0 || c.NumEnvBoards > c.NumBoards:
		return fmt.Errorf("dataset: NumEnvBoards %d out of range [0,%d]", c.NumEnvBoards, c.NumBoards)
	case c.GridW <= 0 || c.GridH <= 0:
		return fmt.Errorf("dataset: grid must be positive, got %dx%d", c.GridW, c.GridH)
	case c.NoiseMHz < 0:
		return fmt.Errorf("dataset: NoiseMHz must be non-negative, got %g", c.NoiseMHz)
	}
	return c.Process.Validate()
}

// GenerateVT fabricates the full dataset in memory. Population boards get
// one nominal measurement; the last NumEnvBoards boards get the voltage
// and temperature sweeps as well. It is StreamVT plus an accumulator —
// corpora too large to hold (10k-board fleets) should use StreamVT with a
// ShardWriter instead; the two produce bit-identical boards.
func GenerateVT(cfg VTConfig) (*Dataset, error) {
	ds := &Dataset{Name: "vt-synthetic"}
	err := StreamVT(cfg, func(b *Board) error {
		ds.Boards = append(ds.Boards, b)
		if len(b.Freq) > 1 {
			ds.EnvIDs = append(ds.EnvIDs, b.ID)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ds, nil
}

// generateVTBoard fabricates one die into die's storage and measures it
// under its conditions with the board-major batch meter (one pinned env
// table and one noise NormFill per condition; bm's scratch and die's
// devices are reused across boards, and the board keeps no reference to
// either). The result is bit-identical to the historical per-device loop.
func generateVTBoard(cfg VTConfig, id int, env bool, rng *rngx.RNG, bm *measure.BoardMeter, die *silicon.Die) (*Board, error) {
	die, err := silicon.NewDieInto(die, cfg.Process, cfg.GridW, cfg.GridH, rng)
	if err != nil {
		return nil, err
	}
	n := die.NumDevices()
	b := &Board{
		ID:    id,
		GridW: cfg.GridW,
		GridH: cfg.GridH,
		X:     make([]int, n),
		Y:     make([]int, n),
		Freq:  make(map[Condition][]float64),
	}
	for i := 0; i < n; i++ {
		dev := die.Device(i)
		b.X[i], b.Y[i] = dev.X, dev.Y
	}
	conds := []Condition{NominalCondition}
	if env {
		seen := map[Condition]bool{NominalCondition: true}
		for _, c := range append(VoltageSweep(), TemperatureSweep()...) {
			if !seen[c] {
				seen[c] = true
				conds = append(conds, c)
			}
		}
	}
	mrng := rng.Split() // measurement-noise stream, separate from fabrication
	for _, c := range conds {
		f, err := bm.MeasureInto(make([]float64, n), die, c.Env(), mrng)
		if err != nil {
			return nil, err
		}
		b.Freq[c] = f
	}
	return b, nil
}

// GroupBitsPerBoard returns how many PUF bits a board with numROs ring
// oscillators yields when each configurable "ring" consumes n ROs (treated
// as inverters, as in §IV of the paper) and each bit needs a ring pair.
// Counts are rounded down to a multiple of 8 so the 1-out-of-8 baseline —
// which spends 8 ROs per bit on the *same* RO budget — is always an integer
// quarter of it. This reproduces the paper's Table V exactly:
// n=3,5,7,9 → 80,48,32,24 configurable/traditional bits and 20,12,8,6
// 1-out-of-8 bits for 512 ROs.
func GroupBitsPerBoard(numROs, n int) (configurable, oneOutOf8 int, err error) {
	if n <= 0 {
		return 0, 0, fmt.Errorf("dataset: ring length n must be positive, got %d", n)
	}
	if numROs < 2*n {
		return 0, 0, fmt.Errorf("dataset: %d ROs cannot form a pair of %d-stage rings", numROs, n)
	}
	configurable = 8 * (numROs / (16 * n))
	if configurable == 0 {
		configurable = numROs / (2 * n) // tiny boards: skip the rounding rule
	}
	return configurable, configurable / 4, nil
}
