package fleet

import (
	"context"
	"sync/atomic"
	"testing"
)

func TestDispatchRunsEveryJobOnce(t *testing.T) {
	const n = 200
	var ran [n]atomic.Int32
	err := Dispatch(context.Background(), n, 8, func(idx int) {
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

func TestDispatchClampsWorkerCount(t *testing.T) {
	var ran atomic.Int32
	// workers < 1 and workers > n must both still complete every job.
	for _, workers := range []int{-3, 0, 50} {
		ran.Store(0)
		if err := Dispatch(context.Background(), 10, workers, func(idx int) {
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
	err := Dispatch(ctx, 100, 4, func(idx int) { ran.Add(1) })
	if err == nil {
		t.Fatal("cancelled dispatch reported success")
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d jobs ran under a pre-cancelled context", got)
	}
}
