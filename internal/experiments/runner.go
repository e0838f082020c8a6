// Package experiments reproduces every table and figure of the paper's
// evaluation section on the synthetic datasets. Each experiment renders a
// plain-text report mirroring the paper's presentation; EXPERIMENTS.md
// records paper-vs-measured values.
//
// Experiment IDs: `ropuf list` prints them in presentation order.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"ropuf/internal/core"
	"ropuf/internal/dataset"
	"ropuf/internal/fleet"
	"ropuf/internal/obs"
	"ropuf/internal/obs/logx"
)

// MetricExperimentSeconds is the per-experiment latency histogram a Runner
// records into its Obs registry, labelled by experiment ID.
const MetricExperimentSeconds = "ropuf_experiment_duration_seconds"

// Result is one experiment's rendered output: Text opens with Title,
// underlined.
type Result struct {
	ID    string
	Title string
	Text  string
}

// Runner executes experiments against lazily generated datasets, caching
// them across experiments so "run everything" fabricates each dataset once.
type Runner struct {
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
		ds, err := dataset.GenerateVT(dataset.DefaultVTConfig())
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
		boards, err := dataset.GenerateInHouse(dataset.DefaultInHouseConfig())
		if err != nil {
			return nil, err
		}
		r.inhouse = boards
	}
	return r.inhouse, nil
}

// experiment is one registry entry: run renders the report's body, and
// the runner heads it with the title.
type experiment struct {
	id, title string
	run       func(*Runner) (string, error)
}

// registry lists every experiment by ID, in presentation order: first the
// paper's tables and figures, then the extension analyses.
var registry = []experiment{
	{"tableI", "Table I — NIST results, configurable PUF Case-1",
		func(r *Runner) (string, error) { return r.nistTable(core.Case1) }},
	{"tableII", "Table II — NIST results, configurable PUF Case-2",
		func(r *Runner) (string, error) { return r.nistTable(core.Case2) }},
	{"fig3", "Fig. 3 — inter-chip HD of configurable PUF outputs", (*Runner).fig3},
	{"tableIII", "Table III — pairwise HD of best configurations, Case-1",
		func(r *Runner) (string, error) { return r.configHDTable(core.Case1) }},
	{"tableIV", "Table IV — pairwise HD of best configurations, Case-2",
		func(r *Runner) (string, error) { return r.configHDTable(core.Case2) }},
	{"fig4", "Fig. 4 — % bit flips under voltage variation (Case-1 configurable vs baselines)",
		func(r *Runner) (string, error) { return r.reliabilityFigure(dataset.VoltageSweep(), core.Case1) }},
	// Fig. 5 is the paper's temperature observation (§IV.D): only the
	// traditional PUF flips.
	{"fig5", "Fig. 5 — % bit flips under temperature variation (Case-1 configurable vs baselines)",
		func(r *Runner) (string, error) { return r.reliabilityFigure(dataset.TemperatureSweep(), core.Case1) }},
	{"tableV", "Table V — total number of bits per board (512 ROs)", (*Runner).tableV},
	{"threshold", "§IV.E — reliable bits vs threshold Rth (in-house inverter-level boards)", (*Runner).threshold},
	{"summary", "Headline claims — reliability and hardware efficiency", (*Runner).summary},
	// Extensions beyond the paper's published evaluation.
	{"security", "Security — what configuration helper data predicts about the bits (§III.D)", (*Runner).security},
	{"nistlong", "NIST (extension) — all 9312 distilled bits as one sequence", (*Runner).nistLong},
	{"maiti", "Related work — Maiti–Schaumont CRO vs inverter-level configurable PUF", (*Runner).maiti},
	{"parity", "Ablation — odd-stage-count (physical oscillation) constraint", (*Runner).parity},
	{"utilization", "Hardware utilization — reliable bits per 512-RO budget (n=5 rings)", (*Runner).utilization},
	{"distiller", "Distiller — spatial structure removal and degree ablation", (*Runner).distiller},
	{"aging", "Aging (extension) — bit stability over device lifetime", (*Runner).aging},
	{"modeling", "Modeling attack (extension) — why configurations must be fixed (§II)", (*Runner).modeling},
	{"entropy", "Min-entropy (extension) — response bits as key material", (*Runner).entropy},
	{"ecc", "ECC cost (extension) — masking vs repetition vs Golay", (*Runner).ecc},
	{"sensitivity", "Sensitivity (extension) — conclusions across process calibrations", (*Runner).sensitivity},
	{"trng", "TRNG (extension) — RO-jitter random number generation", (*Runner).trng},
	{"pairing", "Pairing (extension) — physical layout vs systematic variation", (*Runner).pairing},
	{"multibit", "Multi-bit (extension) — disjoint configurations per ring pair", (*Runner).multibit},
	{"measurement", "Measurement (extension) — §III.B protocol accuracy ablation", (*Runner).measurement},
	// The paper's closing §IV.D remark: "similar observations hold for
	// Case-2 … because of this flexibility, the Case-2 configurable PUF
	// becomes more reliable."
	{"fig4case2", "Fig. 4 (Case-2 variant) — % bit flips under voltage variation",
		func(r *Runner) (string, error) { return r.reliabilityFigure(dataset.VoltageSweep(), core.Case2) }},
}

// IDs lists the available experiment IDs in presentation order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// Run executes one experiment by ID.
func (r *Runner) Run(id string) (*Result, error) {
	return r.runCtx(context.Background(), id)
}

// render runs e and heads its body with the underlined title.
func (e experiment) render(r *Runner) (*Result, error) {
	body, err := e.run(r)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n\n", e.title, strings.Repeat("=", len(e.title)))
	b.WriteString(body)
	return &Result{ID: e.id, Title: e.title, Text: b.String()}, nil
}

// runCtx executes one experiment, wrapping it in a span (parented by ctx)
// and a latency observation when the runner is instrumented.
func (r *Runner) runCtx(ctx context.Context, id string) (*Result, error) {
	i := slices.IndexFunc(registry, func(e experiment) bool { return e.id == id })
	if i < 0 {
		known := IDs()
		sort.Strings(known)
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, known)
	}
	e := registry[i]
	if r.Tracer == nil && r.Obs == nil && r.Logger == nil {
		return e.render(r)
	}
	expCtx, span := r.Tracer.Start(ctx, "experiment", obs.KV("experiment", id))
	start := time.Now()
	res, err := e.render(r)
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
