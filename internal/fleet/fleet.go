// Package fleet is the batch layer of the system: it enrolls and evaluates
// many PUF devices concurrently over a bounded worker pool.
//
// The per-device algorithms live in package core and are strictly serial;
// fleet adds what a verifier facing a device population needs on top of
// them:
//
//   - bounded concurrency (Options.Workers) with results returned in input
//     order, so batch runs stay deterministic regardless of scheduling;
//   - per-device error isolation — a degenerate or poisoned device yields
//     a per-device error in its DeviceResult, never a batch abort (worker
//     panics are recovered into errors the same way);
//   - cancellation via context.Context — dispatch stops at cancellation,
//     in-flight devices finish, and completed work is returned alongside
//     the context error;
//   - per-stage progress counters (metrics.FleetCounters): devices
//     enrolled/failed, pairs kept/rejected by the threshold, bit flips
//     observed during evaluation, and wall-clock per stage;
//   - observability (package obs): per-device latency histograms through
//     the counters' registry, and — with Options.Tracer set — one span per
//     batch stage with a child span per processed device.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"time"

	"ropuf/internal/bits"
	"ropuf/internal/core"
	"ropuf/internal/metrics"
	"ropuf/internal/obs"
	"ropuf/internal/obs/logx"
)

// Device is one fleet member's enrollment-time measurement: per-pair delay
// vectors for every PUF pair on the device.
type Device struct {
	ID    string
	Pairs []core.Pair
	// Mode, when non-zero, overrides Options.Mode for this device.
	Mode core.Mode
}

// Options configures a batch run.
type Options struct {
	// Workers bounds concurrency; <= 0 means GOMAXPROCS.
	Workers int
	// Mode selects Case-1 or Case-2 enrollment (per-device Device.Mode
	// overrides it). Ignored by Evaluate.
	Mode core.Mode
	// Threshold is the enrollment reliability threshold passed to
	// core.Enroll. Ignored by Evaluate.
	Threshold float64
	// Counters, when non-nil, receives per-stage progress counts plus
	// per-device latency observations (metrics.MetricDeviceSeconds).
	Counters *metrics.FleetCounters
	// Tracer, when non-nil, emits one span per batch stage and one child
	// span per processed device. A nil tracer costs nothing.
	Tracer *obs.Tracer
	// Logger, when non-nil, receives a Warn record per failed device and an
	// Info summary per batch stage, stamped with the stage span's trace ID
	// when Tracer is also set.
	Logger *slog.Logger
}

func (o Options) logger() *slog.Logger {
	if o.Logger != nil {
		return o.Logger
	}
	return logx.Nop()
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// DeviceResult is the outcome of enrolling one device. Exactly one of
// Enrollment and Err is non-nil once the device has been processed; both
// are nil when cancellation prevented the device from being dispatched.
type DeviceResult struct {
	ID         string
	Enrollment *core.Enrollment
	Err        error
}

// EnrollReport summarizes a batch enrollment. Results is parallel to the
// input device slice.
type EnrollReport struct {
	Results []DeviceResult
	// Enrolled and Failed count processed devices; PairsKept and
	// PairsRejected count their pairs relative to the threshold mask.
	Enrolled, Failed         int
	PairsKept, PairsRejected int
	Elapsed                  time.Duration
}

// Enroll configures every device of the batch concurrently. A per-device
// failure (degenerate pairs, poisoned measurements, threshold too high)
// is recorded in that device's DeviceResult; the batch keeps going. The
// returned error is non-nil only for invalid batch options or context
// cancellation — in the latter case the report still carries all completed
// work.
func Enroll(ctx context.Context, devices []Device, opt Options) (*EnrollReport, error) {
	if len(devices) == 0 {
		return nil, errors.New("fleet: Enroll with no devices")
	}
	if !(opt.Threshold >= 0) {
		return nil, fmt.Errorf("fleet: enrollment threshold %g, want a non-negative number", opt.Threshold)
	}
	for i, d := range devices {
		mode := d.mode(opt)
		if mode != core.Case1 && mode != core.Case2 {
			return nil, fmt.Errorf("fleet: device %d (%s): invalid mode %d", i, d.ID, int(mode))
		}
	}
	start := time.Now()
	ctx, span := opt.Tracer.Start(ctx, "fleet.enroll",
		obs.KV("devices", strconv.Itoa(len(devices))),
		obs.KV("workers", strconv.Itoa(opt.workers())))
	report := &EnrollReport{Results: make([]DeviceResult, len(devices))}
	run := func(i int) {
		timeDevice(ctx, opt, "enroll", devices[i].ID, func() error {
			report.Results[i] = enrollOne(devices[i], opt)
			return report.Results[i].Err
		})
	}
	err := Dispatch(ctx, len(devices), opt.workers(), run)
	report.Elapsed = time.Since(start)
	for i := range report.Results {
		res := &report.Results[i]
		switch {
		case res.Enrollment != nil:
			report.Enrolled++
			kept := res.Enrollment.NumBits()
			report.PairsKept += kept
			report.PairsRejected += len(devices[i].Pairs) - kept
		case res.Err != nil:
			report.Failed++
		}
	}
	if c := opt.Counters; c != nil {
		c.DevicesEnrolled.Add(int64(report.Enrolled))
		c.DevicesFailed.Add(int64(report.Failed))
		c.PairsKept.Add(int64(report.PairsKept))
		c.PairsRejected.Add(int64(report.PairsRejected))
		c.ObserveStage("enroll", report.Elapsed)
	}
	span.SetAttr("enrolled", strconv.Itoa(report.Enrolled))
	span.SetAttr("failed", strconv.Itoa(report.Failed))
	span.End()
	opt.logger().LogAttrs(ctx, slog.LevelInfo, "enroll batch done",
		slog.Int("devices", len(devices)), slog.Int("enrolled", report.Enrolled),
		slog.Int("failed", report.Failed), slog.Duration("elapsed", report.Elapsed))
	return report, err
}

// timeDevice wraps one device's processing with a per-device span, a
// latency observation, and a Warn log on failure. With no tracer, counters,
// or logger configured the only overhead is three nil checks.
func timeDevice(ctx context.Context, opt Options, stage, id string, fn func() error) {
	if opt.Tracer == nil && opt.Counters == nil && opt.Logger == nil {
		_ = fn()
		return
	}
	devCtx, span := opt.Tracer.Start(ctx, "fleet."+stage+".device", obs.KV("device", id))
	start := time.Now()
	err := fn()
	if opt.Counters != nil {
		opt.Counters.ObserveDevice(stage, time.Since(start))
	}
	if err != nil {
		span.SetAttr("error", err.Error())
		opt.logger().LogAttrs(devCtx, slog.LevelWarn, "device failed",
			slog.String("stage", stage), slog.String("device", id), slog.Any("error", err))
	}
	span.End()
}

func (d Device) mode(opt Options) core.Mode {
	if d.Mode != 0 {
		return d.Mode
	}
	return opt.Mode
}

// enrollOne enrolls a single device, converting panics from poisoned input
// into per-device errors so one bad device cannot take down the batch.
func enrollOne(d Device, opt Options) (res DeviceResult) {
	res.ID = d.ID
	defer func() {
		if p := recover(); p != nil {
			res.Enrollment = nil
			res.Err = fmt.Errorf("fleet: device %s: panic during enrollment: %v", d.ID, p)
		}
	}()
	enr, err := core.Enroll(d.Pairs, d.mode(opt), opt.Threshold, core.Options{})
	if err != nil {
		res.Err = fmt.Errorf("fleet: device %s: %w", d.ID, err)
		return res
	}
	res.Enrollment = enr
	return res
}

// EvalJob pairs a device's enrollment with fresh measurements taken under
// one or more environments (e.g. the points of a voltage sweep).
type EvalJob struct {
	ID         string
	Enrollment *core.Enrollment
	// Envs holds one fresh measurement of the device's pairs per
	// environment, in the caller's environment order.
	Envs [][]core.Pair
	// RefEnv selects the environment whose regenerated response serves as
	// the reliability reference (the paper compares sweeps against the
	// nominal-condition evaluation); the reference environment itself is
	// excluded from flip counting. A negative RefEnv compares every
	// environment against the enrolled response instead.
	RefEnv int
}

// EvalResult is the outcome of evaluating one device across its
// environments.
type EvalResult struct {
	ID string
	// Responses holds the regenerated response per environment.
	Responses []*bits.Stream
	// Reliability compares the non-reference responses against the
	// reference (see EvalJob.RefEnv).
	Reliability *metrics.Reliability
	Err         error
}

// EvalReport summarizes a batch evaluation. Results is parallel to the
// input job slice.
type EvalReport struct {
	Results           []EvalResult
	Evaluated, Failed int
	Elapsed           time.Duration
}

// Evaluate regenerates responses for every job concurrently and computes
// per-device reliability. Error isolation and cancellation semantics match
// Enroll; only Options.Workers and Options.Counters are consulted.
func Evaluate(ctx context.Context, jobs []EvalJob, opt Options) (*EvalReport, error) {
	if len(jobs) == 0 {
		return nil, errors.New("fleet: Evaluate with no jobs")
	}
	start := time.Now()
	ctx, span := opt.Tracer.Start(ctx, "fleet.evaluate",
		obs.KV("jobs", strconv.Itoa(len(jobs))),
		obs.KV("workers", strconv.Itoa(opt.workers())))
	report := &EvalReport{Results: make([]EvalResult, len(jobs))}
	run := func(i int) {
		timeDevice(ctx, opt, "evaluate", jobs[i].ID, func() error {
			report.Results[i] = evalOne(jobs[i])
			return report.Results[i].Err
		})
	}
	err := Dispatch(ctx, len(jobs), opt.workers(), run)
	report.Elapsed = time.Since(start)
	var flips int64
	for _, res := range report.Results {
		switch {
		case res.Err != nil:
			report.Failed++
		case res.Reliability != nil:
			report.Evaluated++
			flips += int64(res.Reliability.Flips)
		}
	}
	if c := opt.Counters; c != nil {
		c.Evaluations.Add(int64(report.Evaluated))
		c.EvalErrors.Add(int64(report.Failed))
		c.BitFlips.Add(flips)
		c.ObserveStage("evaluate", report.Elapsed)
	}
	span.SetAttr("evaluated", strconv.Itoa(report.Evaluated))
	span.SetAttr("failed", strconv.Itoa(report.Failed))
	span.End()
	opt.logger().LogAttrs(ctx, slog.LevelInfo, "evaluate batch done",
		slog.Int("jobs", len(jobs)), slog.Int("evaluated", report.Evaluated),
		slog.Int("failed", report.Failed), slog.Duration("elapsed", report.Elapsed))
	return report, err
}

func evalOne(j EvalJob) (res EvalResult) {
	res.ID = j.ID
	defer func() {
		if p := recover(); p != nil {
			res = EvalResult{ID: j.ID, Err: fmt.Errorf("fleet: device %s: panic during evaluation: %v", j.ID, p)}
		}
	}()
	if j.Enrollment == nil {
		res.Err = fmt.Errorf("fleet: device %s: no enrollment", j.ID)
		return res
	}
	if len(j.Envs) == 0 {
		res.Err = fmt.Errorf("fleet: device %s: no environments to evaluate", j.ID)
		return res
	}
	if j.RefEnv >= len(j.Envs) {
		res.Err = fmt.Errorf("fleet: device %s: reference environment %d of %d", j.ID, j.RefEnv, len(j.Envs))
		return res
	}
	res.Responses = make([]*bits.Stream, len(j.Envs))
	for e, pairs := range j.Envs {
		resp, err := j.Enrollment.Evaluate(pairs)
		if err != nil {
			res.Responses = nil
			res.Err = fmt.Errorf("fleet: device %s: environment %d: %w", j.ID, e, err)
			return res
		}
		res.Responses[e] = resp
	}
	ref := j.Enrollment.Response
	if j.RefEnv >= 0 {
		ref = res.Responses[j.RefEnv]
	}
	var regen []*bits.Stream
	for e, r := range res.Responses {
		if e == j.RefEnv {
			continue
		}
		regen = append(regen, r)
	}
	rel, err := metrics.ComputeReliability(ref, regen)
	if err != nil {
		res.Err = fmt.Errorf("fleet: device %s: %w", j.ID, err)
		return res
	}
	res.Reliability = rel
	return res
}

// Dispatch is the repository's unordered bounded worker pool: it feeds
// job indices 0..n-1 to min(workers, n) goroutines (at least one) and
// returns once every dispatched job has finished. Jobs run in no
// particular order; callers that need order write results by index.
// Dispatch stops dispatching once ctx is cancelled and returns the
// context's error after the jobs in flight finish; one job handed over as
// the cancellation lands may still start, so run checks ctx itself where
// that matters. A caller that stops at its first failure cancels a context
// derived for the batch.
func Dispatch(ctx context.Context, n, workers int, run func(idx int)) error {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				run(i)
			}
		}()
	}
	for i := 0; i < n && ctx.Err() == nil; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("fleet: batch cancelled: %w", err)
	}
	return nil
}
