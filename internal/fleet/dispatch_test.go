package fleet

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestDispatchRunsEveryJobOnce(t *testing.T) {
	const n = 200
	var ran [n]atomic.Int32
	err := Dispatch(context.Background(), n, 8, func(worker, idx int) {
		if worker < 0 || worker >= 8 {
			t.Errorf("job %d ran on worker %d", idx, worker)
		}
		ran[idx].Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Fatalf("job %d ran %d times", i, got)
		}
	}
}

// TestDispatchWorkerIndexIsExclusive pins what per-worker scratch relies
// on: a worker index runs one job at a time, so run may mutate state
// indexed by it without synchronization. The counters are plain ints; the
// race detector reports any two jobs that share an index concurrently.
func TestDispatchWorkerIndexIsExclusive(t *testing.T) {
	const n, workers = 500, 6
	counts := make([]int, workers)
	err := Dispatch(context.Background(), n, workers, func(worker, idx int) {
		counts[worker]++
		runtime.Gosched()
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != n {
		t.Fatalf("per-worker counters sum to %d, want %d", sum, n)
	}
}

func TestDispatchClampsWorkerCount(t *testing.T) {
	var ran atomic.Int32
	// workers < 1 and workers > n must both still complete every job.
	for _, workers := range []int{-3, 0, 50} {
		ran.Store(0)
		if err := Dispatch(context.Background(), 10, workers, func(worker, idx int) {
			ran.Add(1)
		}); err != nil {
			t.Fatal(err)
		}
		if ran.Load() != 10 {
			t.Fatalf("workers=%d: ran %d of 10 jobs", workers, ran.Load())
		}
	}
}

func TestDispatchCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := Dispatch(ctx, 100, 4, func(worker, idx int) { ran.Add(1) })
	if err == nil {
		t.Fatal("cancelled dispatch reported success")
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d jobs ran under a pre-cancelled context", got)
	}
}
