package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"ropuf/internal/obs"
)

// TestRunParallelStopsDispatchAfterFirstError injects a failing experiment
// and proves cancellation: with one worker, the failure lands before any
// later job can be dispatched, so exactly one experiment runs and the
// completed results (none here) plus the aggregated error come back.
func TestRunParallelStopsDispatchAfterFirstError(t *testing.T) {
	ids := make([]string, 20)
	for i := range ids {
		ids[i] = fmt.Sprintf("exp-%02d", i)
	}
	boom := errors.New("injected failure")
	var ran atomic.Int64
	run := func(id string) (*Result, error) {
		ran.Add(1)
		if id == "exp-00" {
			return nil, boom
		}
		return &Result{ID: id, Text: id}, nil
	}
	results, err := runParallel(context.Background(), ids, 1, run)
	if !errors.Is(err, boom) {
		t.Fatalf("aggregated error %v does not wrap the injected failure", err)
	}
	if !strings.Contains(err.Error(), "exp-00") {
		t.Fatalf("error %q does not name the failing experiment", err)
	}
	// With a single worker the failure closes the batch before job 1 can
	// run; allow at most one racing dispatch.
	if n := ran.Load(); n > 2 {
		t.Fatalf("%d experiments ran after the first failure, want <= 2", n)
	}
	if len(results) != len(ids) {
		t.Fatalf("results length %d, want %d (nil slots for undispatched)", len(results), len(ids))
	}
	for i := 5; i < len(ids); i++ {
		if results[i] != nil {
			t.Fatalf("experiment %s ran after the batch failed", ids[i])
		}
	}
}

// TestRunParallelKeepsCompletedResults checks that work finished before the
// failure is returned, not discarded.
func TestRunParallelKeepsCompletedResults(t *testing.T) {
	ids := []string{"ok-0", "ok-1", "ok-2", "bad", "never-0", "never-1"}
	boom := errors.New("injected failure")
	run := func(id string) (*Result, error) {
		if id == "bad" {
			return nil, boom
		}
		return &Result{ID: id, Text: id}, nil
	}
	results, err := runParallel(context.Background(), ids, 1, run)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	for i := 0; i < 3; i++ {
		if results[i] == nil || results[i].ID != ids[i] {
			t.Fatalf("completed result %d lost: %+v", i, results[i])
		}
	}
	if results[5] != nil {
		t.Fatal("experiment after the failure was dispatched")
	}
}

func TestRunParallelContextCancellation(t *testing.T) {
	ids := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	run := func(id string) (*Result, error) {
		ran.Add(1)
		cancel() // first experiment cancels the batch
		return &Result{ID: id, Text: id}, nil
	}
	results, err := runParallel(ctx, ids, 1, run)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n > 2 {
		t.Fatalf("%d experiments ran after cancellation, want <= 2", n)
	}
	if results[0] == nil {
		t.Fatal("completed result discarded on cancellation")
	}
}

// TestRunInstrumented checks that an instrumented runner emits one span and
// one latency observation per executed experiment, parented under the
// RunAllParallel batch span when one is open. The runner is moved to a
// second tracer and registry after the first round, and each round must see
// only its own span and observation.
func TestRunInstrumented(t *testing.T) {
	defer func() {
		sharedRunner.Tracer = nil
		sharedRunner.Obs = nil
	}()
	for round := 1; round <= 2; round++ {
		ring := obs.NewRingSink(8)
		reg := obs.NewRegistry()
		sharedRunner.Tracer = obs.NewTracer(ring)
		sharedRunner.Obs = reg
		if _, err := sharedRunner.Run("tableI"); err != nil {
			t.Fatal(err)
		}
		events := ring.Events()
		if len(events) != 1 {
			t.Fatalf("round %d: %d spans, want 1", round, len(events))
		}
		if events[0].Name != "experiment" || events[0].Attrs["experiment"] != "tableI" {
			t.Fatalf("round %d: span = %+v", round, events[0])
		}
		snap := reg.Snapshot()
		if len(snap) != 1 || snap[0].Name != MetricExperimentSeconds {
			t.Fatalf("round %d: registry families = %+v", round, snap)
		}
		s := snap[0].Series[0]
		if s.Labels["experiment"] != "tableI" || s.Count != 1 {
			t.Fatalf("round %d: histogram series = %+v", round, s)
		}
		// Unknown IDs fail before any span or observation is recorded.
		if _, err := sharedRunner.Run("nonsense"); err == nil {
			t.Fatal("unknown ID accepted")
		}
		if got := len(ring.Events()); got != 1 {
			t.Fatalf("round %d: unknown ID emitted a span (%d events)", round, got)
		}
	}
}
