package experiments

import (
	"fmt"

	"ropuf/internal/bits"
	"ropuf/internal/core"
	"ropuf/internal/dataset"
	"ropuf/internal/distill"
	"ropuf/internal/nist"
)

// distillerDegree is the polynomial degree of the systematic-variation fit
// used before randomness/uniqueness bit extraction (the paper applies the
// distiller of [18] for the same purpose).
const distillerDegree = 2

// raw is the distiller degree that leaves a board's periods undistilled.
const raw = -1

// boardDelays returns a board's per-RO delays (periods) under cond with
// the systematic surface of the given degree removed, or as measured when
// degree is raw.
func boardDelays(b *dataset.Board, cond dataset.Condition, degree int) ([]float64, error) {
	periods, err := b.PeriodsPS(cond)
	if err != nil || degree == raw {
		return periods, err
	}
	d, err := distill.New(degree)
	if err != nil {
		return nil, err
	}
	res, err := d.Apply(b.X, b.Y, periods)
	if err != nil {
		return nil, fmt.Errorf("experiments: distilling board %d: %w", b.ID, err)
	}
	return res, nil
}

// groupPairs slices a board's delay vector into PUF pairs of n-stage rings:
// pair p's top ring uses delays[2np : 2np+n], its bottom ring the next n.
// numPairs follows the paper's Table V accounting.
func groupPairs(delays []float64, n int) ([]core.Pair, error) {
	numPairs, _, err := dataset.GroupBitsPerBoard(len(delays), n)
	if err != nil {
		return nil, err
	}
	pairs := make([]core.Pair, numPairs)
	for p := 0; p < numPairs; p++ {
		base := p * 2 * n
		pairs[p] = core.Pair{
			Alpha: delays[base : base+n],
			Beta:  delays[base+n : base+2*n],
		}
	}
	return pairs, nil
}

// boardEnroll groups a board's nominal delays, distilled at degree, into
// n-stage pairs and enrolls the configurable PUF.
func boardEnroll(b *dataset.Board, n int, mode core.Mode, degree int) (*core.Enrollment, error) {
	delays, err := boardDelays(b, dataset.NominalCondition, degree)
	if err != nil {
		return nil, err
	}
	pairs, err := groupPairs(delays, n)
	if err != nil {
		return nil, err
	}
	e, err := core.Enroll(pairs, mode, 0, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: board %d: %w", b.ID, err)
	}
	return e, nil
}

// paperBoards returns the first numNominalBoards nominal boards of the VT
// dataset: the population of the paper's §IV.A–C experiments.
func (r *Runner) paperBoards() ([]*dataset.Board, error) {
	ds, err := r.VT()
	if err != nil {
		return nil, err
	}
	boards := ds.NominalBoards()
	if len(boards) < numNominalBoards {
		return nil, fmt.Errorf("experiments: dataset has %d nominal boards, need %d", len(boards), numNominalBoards)
	}
	return boards[:numNominalBoards], nil
}

// pufStreams builds the paper's §IV.A bit-streams: per-board Case-1 or
// Case-2 responses with n = 5 rings, from delays distilled at degree (raw
// for none). Each response is 48 bits, so each stream is 96 bits.
func (r *Runner) pufStreams(mode core.Mode, degree int) ([]*bits.Stream, error) {
	return r.boardStreams(func(b *dataset.Board) (*bits.Stream, error) {
		e, err := boardEnroll(b, streamRingLen, mode, degree)
		if err != nil {
			return nil, err
		}
		return e.Response, nil
	})
}

// boardStreams concatenates the responses of the paper's boards two at a
// time: 194 boards yield 97 streams, and every board is consumed.
func (r *Runner) boardStreams(response func(*dataset.Board) (*bits.Stream, error)) ([]*bits.Stream, error) {
	boards, err := r.paperBoards()
	if err != nil {
		return nil, err
	}
	responses := make([]*bits.Stream, len(boards))
	for i, b := range boards {
		if responses[i], err = response(b); err != nil {
			return nil, err
		}
	}
	var streams []*bits.Stream
	for i := 0; i+1 < len(responses); i += 2 {
		streams = append(streams, bits.Concat(responses[i], responses[i+1]))
	}
	return streams, nil
}

// numNominalBoards is the population size the paper uses (194 of the 198
// boards have nominal-only measurements).
const numNominalBoards = 194

// streamRingLen is the ring length of the §IV.A randomness experiments.
const streamRingLen = 5

// nistShort runs the NIST short suite of Tables I/II over streams and
// counts the report's rows that meet the proportion threshold.
func nistShort(streams []*bits.Stream) (rep *nist.Report, passRows int, err error) {
	rep, err = nist.RunReport(streams, nist.ShortSuite(streams[0].Len()))
	if err != nil {
		return nil, 0, err
	}
	for _, row := range rep.Rows {
		if row.Pass >= nist.MinPassCount(row.Total) {
			passRows++
		}
	}
	return rep, passRows, nil
}
