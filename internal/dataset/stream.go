package dataset

import (
	"context"
	"fmt"

	"ropuf/internal/measure"
	"ropuf/internal/rngx"
	"ropuf/internal/silicon"
)

// StreamVT generates the VT dataset one board at a time, invoking fn with
// each board in ID order. Unlike GenerateVT it never materializes the
// corpus: the only live state is the board currently being fabricated and
// measured, so memory is constant in the board count and the paper-scale
// 198-board corpus — or a 10k-board fleet — streams straight to disk. The
// board sequence is bit-identical to GenerateVT at the same configuration
// (GenerateVT is StreamVT plus an accumulator; the equivalence battery in
// stream_test.go pins it).
//
// The *Board passed to fn is owned by fn: StreamVT never reuses it, so
// callbacks may retain boards (at the cost of the memory bound).
func StreamVT(cfg VTConfig, fn func(*Board) error) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	return streamVT(context.Background(), cfg, rngx.New(cfg.Seed), fn)
}

// streamVT is StreamVT over an explicit root generator and context; the
// golden test drives it directly to pin the post-generation root state.
func streamVT(ctx context.Context, cfg VTConfig, root *rngx.RNG, fn func(*Board) error) error {
	bm, die := measure.NewBoardMeter(cfg.NoiseMHz), new(silicon.Die)
	for id := 0; id < cfg.NumBoards; id++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("dataset: stream cancelled: %w", err)
		}
		brng := root.Split()
		board, err := generateVTBoard(cfg, id, id >= cfg.NumBoards-cfg.NumEnvBoards, brng, bm, die)
		if err != nil {
			return fmt.Errorf("dataset: board %d: %w", id, err)
		}
		if err := fn(board); err != nil {
			return err
		}
	}
	return nil
}

// boardResult is one board's outcome, delivered through the board's own
// one-slot channel.
type boardResult struct {
	board *Board
	err   error
}

// boardJob hands one board to a worker: its ID, the seed drawn for it in
// serial order, and the slot its result goes to.
type boardJob struct {
	id   int
	seed uint64
	slot chan<- boardResult
}

// StreamVTParallel is StreamVT with board fabrication fanned out over
// workers, each owning one die and one meter. It is an ordered pipeline:
// one goroutine draws every board's seed from the root generator
// (rngx.RNG.SplitSeed, the serial stream's order), queues a one-slot
// result channel for the board, and then hands the board to a worker. The
// calling goroutine takes the slots off the queue in board order and calls
// fn with each board as it lands, so the emitted sequence — order and
// bits — is identical to StreamVT whatever the worker count or scheduling.
// The queue holds 2·workers+2 slots, which bounds the boards generated
// but not yet emitted: memory stays constant in the board count even when
// one board runs slow. StreamVTParallel returns the first board error,
// sink error or cancellation, after every board in flight has finished.
// workers <= 1 degrades to the serial generator.
func StreamVTParallel(ctx context.Context, cfg VTConfig, workers int, fn func(*Board) error) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 1 {
		return streamVT(ctx, cfg, rngx.New(cfg.Seed), fn)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	n := cfg.NumBoards
	// The queue's capacity bounds the boards generated but not yet emitted.
	slots := make(chan chan boardResult, 2*workers+2)
	jobs := make(chan boardJob)
	go func() {
		defer close(slots)
		defer close(jobs)
		root := rngx.New(cfg.Seed)
		for id := 0; id < n; id++ {
			slot := make(chan boardResult, 1)
			slots <- slot
			if err := ctx.Err(); err != nil {
				slot <- boardResult{err: fmt.Errorf("dataset: stream cancelled: %w", err)}
				return
			}
			jobs <- boardJob{id: id, seed: root.SplitSeed(), slot: slot}
		}
	}()
	for w := 0; w < workers; w++ {
		go func() {
			bm, die := measure.NewBoardMeter(cfg.NoiseMHz), new(silicon.Die)
			for j := range jobs {
				board, err := generateVTBoard(cfg, j.id, j.id >= n-cfg.NumEnvBoards, rngx.New(j.seed), bm, die)
				if err != nil {
					err = fmt.Errorf("dataset: board %d: %w", j.id, err)
				}
				j.slot <- boardResult{board: board, err: err}
			}
		}()
	}

	// Every slot is drained, after a failure too: no send above blocks for
	// good, and each board in flight has finished by the time this returns.
	var err error
	for slot := range slots {
		r := <-slot
		if err != nil {
			continue
		}
		switch {
		case r.err != nil:
			err = r.err
		case ctx.Err() != nil:
			err = fmt.Errorf("dataset: stream cancelled: %w", ctx.Err())
		default:
			err = fn(r.board)
		}
		if err != nil {
			cancel()
		}
	}
	return err
}
