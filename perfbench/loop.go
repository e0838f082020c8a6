package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// loopResult is what a load loop measured: per-op latency of the ops that
// succeeded, the failures, and (open loop only) how late the generator
// released each op.
type loopResult struct {
	Lat    []time.Duration
	Late   []time.Duration
	Failed int
	Errs   []error // the first few failures, for the log
	Wall   time.Duration
}

const keepErrs = 5

// collect folds per-op outcomes into a loopResult.
func collect(lat []time.Duration, errs []error, wall time.Duration) loopResult {
	r := loopResult{Wall: wall}
	for i, err := range errs {
		if err != nil {
			r.Failed++
			if len(r.Errs) < keepErrs {
				r.Errs = append(r.Errs, err)
			}
			continue
		}
		r.Lat = append(r.Lat, lat[i])
	}
	return r
}

// openLoop releases op i at start + i·interval whatever the state of
// earlier ops, and runs released ops on `workers` goroutines (one per
// client connection). Latency runs from each op's scheduled time, so a
// stalled op also delays every op queued behind it and that wait is
// counted. Late records how far behind schedule the generator itself
// released each op.
func openLoop(ctx context.Context, n int, interval time.Duration, workers int, op func(i int) error) loopResult {
	lat := make([]time.Duration, n)
	late := make([]time.Duration, n)
	errs := make([]error, n)
	// Buffered to n so the generator never waits for a busy worker: its
	// lateness then measures only the generator, and queueing behind busy
	// connections shows up in latency instead.
	jobs := make(chan int, n)
	start := time.Now()
	due := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }
	released := 0
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		defer close(jobs)
		timer := time.NewTimer(0)
		defer timer.Stop()
		<-timer.C
		for i := 0; i < n; i++ {
			if wait := time.Until(due(i)); wait > 0 {
				timer.Reset(wait)
				select {
				case <-timer.C:
				case <-ctx.Done():
					return
				}
			}
			late[i] = time.Since(due(i))
			released++
			jobs <- i
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				errs[i] = op(i)
				lat[i] = time.Since(due(i))
			}
		}()
	}
	wg.Wait()
	<-genDone
	wall := time.Since(start)
	r := collect(lat[:released], errs[:released], wall)
	r.Late = late[:released]
	if released < n {
		r.Failed += n - released
		r.Errs = append(r.Errs, ctx.Err())
	}
	return r
}

// closedLoop runs ops 0..n-1 on `clients` goroutines, each starting its
// next op as soon as its previous one returned. Latency is each op's own
// response time.
func closedLoop(n, clients int, op func(i int) error) loopResult {
	lat := make([]time.Duration, n)
	errs := make([]error, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				errs[i] = op(i)
				lat[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	return collect(lat, errs, time.Since(start))
}

// forEach runs fn(0..n-1) on `workers` goroutines and returns the first
// error.
func forEach(n, workers int, fn func(i int) error) error {
	var next atomic.Int64
	var first atomic.Pointer[error]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					first.CompareAndSwap(nil, &err)
				}
			}
		}()
	}
	wg.Wait()
	if p := first.Load(); p != nil {
		return *p
	}
	return nil
}
