// Package experiments reproduces every table and figure of the paper's
// evaluation section on the synthetic datasets. Each experiment renders a
// plain-text report mirroring the paper's presentation; EXPERIMENTS.md
// records paper-vs-measured values.
//
// Experiment IDs: tableI, tableII, fig3, tableIII, tableIV, fig4, fig5,
// tableV, threshold, summary.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"ropuf/internal/dataset"
	"ropuf/internal/fleet"
	"ropuf/internal/obs"
	"ropuf/internal/obs/logx"
)

// MetricExperimentSeconds is the per-experiment latency histogram a Runner
// records into its Obs registry, labelled by experiment ID.
const MetricExperimentSeconds = "ropuf_experiment_duration_seconds"

// Result is one experiment's rendered output.
type Result struct {
	ID    string
	Title string
	Text  string
}

// Runner executes experiments against lazily generated datasets, caching
// them across experiments so "run everything" fabricates each dataset once.
type Runner struct {
	// VTConfig and InHouseConfig override the default dataset parameters
	// when non-nil.
	VTConfig      *dataset.VTConfig
	InHouseConfig *dataset.InHouseConfig

	// Tracer, when non-nil, emits one span per executed experiment (and a
	// parent span around RunAllParallel batches). Obs, when non-nil,
	// receives the MetricExperimentSeconds latency histogram. Logger, when
	// non-nil, records each experiment's completion (Info) or failure
	// (Error), trace-stamped when Tracer is also set. Set all three before
	// the first Run.
	Tracer *obs.Tracer
	Obs    *obs.Registry
	Logger *slog.Logger

	mu      sync.Mutex
	vt      *dataset.Dataset
	inhouse []*dataset.InHouseBoard
}

// NewRunner returns a Runner with default dataset parameters.
func NewRunner() *Runner { return &Runner{} }

// VT returns the (cached) Virginia-Tech-style dataset.
func (r *Runner) VT() (*dataset.Dataset, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.vt == nil {
		cfg := dataset.DefaultVTConfig()
		if r.VTConfig != nil {
			cfg = *r.VTConfig
		}
		ds, err := dataset.GenerateVT(cfg)
		if err != nil {
			return nil, err
		}
		r.vt = ds
	}
	return r.vt, nil
}

// InHouse returns the (cached) inverter-granularity boards.
func (r *Runner) InHouse() ([]*dataset.InHouseBoard, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.inhouse == nil {
		cfg := dataset.DefaultInHouseConfig()
		if r.InHouseConfig != nil {
			cfg = *r.InHouseConfig
		}
		boards, err := dataset.GenerateInHouse(cfg)
		if err != nil {
			return nil, err
		}
		r.inhouse = boards
	}
	return r.inhouse, nil
}

// experimentFns maps experiment IDs to their implementations.
func (r *Runner) experimentFns() map[string]func() (*Result, error) {
	return map[string]func() (*Result, error){
		"tableI":    r.TableI,
		"tableII":   r.TableII,
		"fig3":      r.Fig3,
		"tableIII":  r.TableIII,
		"tableIV":   r.TableIV,
		"fig4":      r.Fig4,
		"fig5":      r.Fig5,
		"tableV":    r.TableV,
		"threshold": r.Threshold,
		"summary":   r.Summary,
		// Extensions beyond the paper's published evaluation.
		"security":    r.Security,
		"nistlong":    r.NISTLong,
		"maiti":       r.Maiti,
		"parity":      r.Parity,
		"utilization": r.Utilization,
		"distiller":   r.Distiller,
		"aging":       r.Aging,
		"modeling":    r.Modeling,
		"entropy":     r.Entropy,
		"ecc":         r.ECC,
		"sensitivity": r.Sensitivity,
		"trng":        r.TRNG,
		"pairing":     r.Pairing,
		"multibit":    r.Multibit,
		"measurement": r.Measurement,
		"fig4case2":   r.Fig4Case2,
	}
}

// IDs lists the available experiment IDs in presentation order: first the
// paper's tables and figures, then the extension analyses.
func IDs() []string {
	return []string{
		"tableI", "tableII", "fig3", "tableIII", "tableIV",
		"fig4", "fig5", "tableV", "threshold", "summary",
		"security", "nistlong", "maiti", "parity",
		"utilization", "distiller", "aging", "modeling",
		"entropy", "ecc", "sensitivity", "trng", "pairing",
		"multibit", "measurement", "fig4case2",
	}
}

// Run executes one experiment by ID.
func (r *Runner) Run(id string) (*Result, error) {
	return r.runCtx(context.Background(), id)
}

// runCtx executes one experiment, wrapping it in a span (parented by ctx)
// and a latency observation when the runner is instrumented.
func (r *Runner) runCtx(ctx context.Context, id string) (*Result, error) {
	fn, ok := r.experimentFns()[id]
	if !ok {
		known := IDs()
		sort.Strings(known)
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, known)
	}
	if r.Tracer == nil && r.Obs == nil && r.Logger == nil {
		return fn()
	}
	expCtx, span := r.Tracer.Start(ctx, "experiment", obs.KV("experiment", id))
	start := time.Now()
	res, err := fn()
	elapsed := time.Since(start)
	if h := r.histogram(); h != nil {
		h.With(id).Observe(elapsed.Seconds())
	}
	if err != nil {
		span.SetAttr("error", err.Error())
		r.logger().LogAttrs(expCtx, slog.LevelError, "experiment failed",
			slog.String("experiment", id), slog.Duration("elapsed", elapsed), slog.Any("error", err))
	} else {
		r.logger().LogAttrs(expCtx, slog.LevelInfo, "experiment done",
			slog.String("experiment", id), slog.Duration("elapsed", elapsed))
	}
	span.End()
	return res, err
}

// logger returns the configured Logger or a no-op one.
func (r *Runner) logger() *slog.Logger {
	if r.Logger != nil {
		return r.Logger
	}
	return logx.Nop()
}

// histogram returns the per-experiment latency histogram of the current
// Obs registry, nil when none is configured. The registry hands back the
// family it already holds, so nothing is cached here and a Runner moved to
// another registry records into that one.
func (r *Runner) histogram() *obs.HistogramVec {
	if r.Obs == nil {
		return nil
	}
	return r.Obs.NewHistogramVec(MetricExperimentSeconds,
		"Wall-clock time per experiment run.", nil, "experiment")
}

// RunAllParallel executes every experiment concurrently (bounded by
// workers; <= 0 means one per experiment) and returns the results in
// presentation order. Datasets are generated once up front so the workers
// contend only on read access.
//
// The first experiment failure (or a context cancellation) stops further
// dispatch; experiments already in flight finish, and their results are
// returned alongside the aggregated error so completed work is never
// discarded. Result slots for experiments that were not run are nil.
func (r *Runner) RunAllParallel(ctx context.Context, workers int) ([]*Result, error) {
	// Warm dataset caches before fanning out.
	if _, err := r.VT(); err != nil {
		return nil, err
	}
	if _, err := r.InHouse(); err != nil {
		return nil, err
	}
	ctx, span := r.Tracer.Start(ctx, "experiments.all",
		obs.KV("experiments", fmt.Sprint(len(IDs()))))
	defer span.End()
	return runParallel(ctx, IDs(), workers, func(id string) (*Result, error) {
		return r.runCtx(ctx, id)
	})
}

// runParallel is the worker-pool core of RunAllParallel, split out so tests
// can inject failing experiments. The first failure cancels the batch's
// context, which stops fleet.Dispatch from handing out more experiments.
func runParallel(ctx context.Context, ids []string, workers int, run func(string) (*Result, error)) ([]*Result, error) {
	if workers <= 0 {
		workers = len(ids)
	}
	results := make([]*Result, len(ids))
	errs := make([]error, len(ids))
	batch, stop := context.WithCancel(ctx)
	defer stop()
	// Dispatch's error would only repeat batch's cancellation, which a
	// failed experiment causes too; ctx's own error is reported below.
	_ = fleet.Dispatch(batch, len(ids), workers, func(i int) {
		// An experiment handed over in the same instant the batch failed
		// or was cancelled is skipped, not run.
		if batch.Err() != nil {
			return
		}
		if results[i], errs[i] = run(ids[i]); errs[i] != nil {
			stop()
		}
	})
	var agg []error
	for i, err := range errs {
		if err != nil {
			agg = append(agg, fmt.Errorf("experiments: %s: %w", ids[i], err))
		}
	}
	if err := ctx.Err(); err != nil {
		agg = append(agg, err)
	}
	return results, errors.Join(agg...)
}
