package dataset

import (
	"context"
	"fmt"
	"sync"

	"ropuf/internal/fleet"
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

// streamResult carries one generated board from a worker to the in-order
// emitter.
type streamResult struct {
	idx   int
	board *Board
	err   error
}

// StreamVTParallel is StreamVT with board fabrication fanned out over a
// bounded worker pool (fleet.Dispatch). Per-board RNG seeds are drawn
// serially in dispatch order through the prepare hook, so the emitted
// board sequence — order and bits — is identical to StreamVT regardless of
// worker count or scheduling. fn is always invoked from the calling
// goroutine, in board-ID order, with completed boards held in a reorder
// window bounded by the worker count (dispatch is window-throttled, so
// memory stays constant in the board count even when one board runs slow).
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

	root := rngx.New(cfg.Seed)
	n := cfg.NumBoards

	// The prepare hook draws seeds in strictly increasing board order (the
	// serial Split stream) and throttles dispatch to the reorder window:
	// a board is only handed to a worker once fewer than `window` boards
	// are dispatched-but-unemitted, which bounds worker-side buffering.
	window := 2*workers + 2
	tokens := make(chan struct{}, window)
	var seedMu sync.Mutex
	seeds := make(map[int]uint64, window)
	prepare := func(idx int) {
		select {
		case tokens <- struct{}{}:
		case <-ctx.Done():
			return
		}
		seedMu.Lock()
		seeds[idx] = root.SplitSeed()
		seedMu.Unlock()
	}

	results := make(chan streamResult, window)
	meters := make([]*measure.BoardMeter, workers)
	dies := make([]*silicon.Die, workers)
	for i := range meters {
		meters[i], dies[i] = measure.NewBoardMeter(cfg.NoiseMHz), new(silicon.Die)
	}
	run := func(worker, idx int) {
		seedMu.Lock()
		seed, ok := seeds[idx]
		delete(seeds, idx)
		seedMu.Unlock()
		if !ok {
			// prepare was cancelled before drawing this seed; the dispatch
			// loop is about to stop, drop the job.
			return
		}
		board, err := generateVTBoard(cfg, idx, idx >= n-cfg.NumEnvBoards, rngx.New(seed), meters[worker], dies[worker])
		if err != nil {
			err = fmt.Errorf("dataset: board %d: %w", idx, err)
		}
		select {
		case results <- streamResult{idx: idx, board: board, err: err}:
		case <-ctx.Done():
		}
	}

	var dispatchErr error
	go func() {
		dispatchErr = fleet.Dispatch(ctx, n, workers, prepare, run)
		close(results)
	}()

	pending := make(map[int]streamResult, window)
	next := 0
	var emitErr error
	for r := range results {
		pending[r.idx] = r
		for {
			cur, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			select {
			case <-tokens:
			default:
			}
			if emitErr != nil {
				continue // drain so workers never block on a full channel
			}
			if cur.err != nil {
				emitErr = cur.err
				cancel()
				continue
			}
			if err := fn(cur.board); err != nil {
				emitErr = err
				cancel()
			}
		}
	}
	if emitErr != nil {
		return emitErr
	}
	if dispatchErr != nil {
		return dispatchErr
	}
	if next != n {
		return fmt.Errorf("dataset: stream emitted %d of %d boards", next, n)
	}
	return nil
}
