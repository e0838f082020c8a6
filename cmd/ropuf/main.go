// Command ropuf is the experiment driver: it regenerates every table and
// figure of "A Highly Flexible Ring Oscillator PUF" (DAC 2014) on the
// synthetic datasets.
//
// Usage:
//
//	ropuf [-out dir] [-parallel N] [-metrics-addr addr] [-trace-out file]
//	      [-log-level level] list|all|experiment <id>...|verify|fleet
//
//	ropuf list                 print available experiment IDs
//	ropuf experiment <id>...   run one or more experiments (or "all")
//	ropuf all                  shorthand for "experiment all"
//	ropuf verify               check the headline reproduction claims
//	ropuf fleet [flags]        enroll + evaluate a synthetic device fleet concurrently
//	ropuf serve [flags]        run the PUF authentication HTTP service
//	ropuf loadgen [flags]      drive a running authserve with a synthetic fleet
//	ropuf watch [flags] <url>  poll fleet /metrics endpoints with anomaly gates
//	ropuf tracestat <file>...  analyze span JSONL files from -trace-out
//	ropuf audit <file>...      analyze security audit JSONL from serve -audit-out
//
// Long-running commands (all, fleet) are observable while they run:
// -metrics-addr serves /metrics (Prometheus text), /healthz, and
// /debug/pprof on the given address, -trace-out streams span events as
// JSON lines, and -log-level emits structured JSON logs (stamped with
// trace/span IDs) to stderr. Ctrl-C cancels the batch cleanly — completed
// work is reported, counters are printed, and the trace file is flushed
// before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"log/slog"

	"ropuf/internal/circuit"
	"ropuf/internal/core"
	"ropuf/internal/experiments"
	"ropuf/internal/fleet"
	"ropuf/internal/metrics"
	"ropuf/internal/obs"
	"ropuf/internal/obs/logx"
)

var (
	outDir      = flag.String("out", "", "also write each experiment report to <dir>/<id>.txt")
	parallel    = flag.Int("parallel", 0, "run 'all' with N concurrent workers (0 = sequential)")
	metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address while the command runs")
	traceOut    = flag.String("trace-out", "", "write span events as JSON lines to this file")
	logLevel    = flag.String("log-level", "", "emit structured JSON logs to stderr at this level (debug, info, warn, error; empty = off)")
)

// newLogger builds the process logger from -log-level: a JSONL slog logger
// on stderr, or a no-op logger when the flag is empty. Records carry
// trace_id/span_id whenever the context holds a span, so log lines and the
// -trace-out span stream cross-reference (DESIGN.md §9).
func newLogger(level string) (*slog.Logger, error) {
	if level == "" {
		return logx.Nop(), nil
	}
	l, err := logx.ParseLevel(level)
	if err != nil {
		return nil, err
	}
	return logx.New(os.Stderr, l), nil
}

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	// Ctrl-C / SIGTERM cancel the in-flight batch; the command paths report
	// completed work and flush counters and traces before returning.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, args); err != nil {
		fmt.Fprintln(os.Stderr, "ropuf:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  ropuf list                 print available experiment IDs
  ropuf experiment <id>...   run experiments by ID (or "all")
  ropuf all                  run every experiment
  ropuf verify               check the headline reproduction claims (CI gate)
  ropuf rtl [stages]         emit the Fig. 1 architecture as Verilog (default 5 stages)
  ropuf fleet [flags]        enroll + evaluate a synthetic device fleet concurrently
                             (see 'ropuf fleet -h' for flags)
  ropuf serve [flags]        run the PUF authentication HTTP service
                             (see 'ropuf serve -h' for flags)
  ropuf loadgen [flags]      drive a running authserve with a synthetic fleet
                             (see 'ropuf loadgen -h' for flags)
  ropuf watch [flags] <url>...
                             poll /metrics on N targets: per-target and fleet
                             rates/quantiles, JSONL time-series log, anomaly
                             rules with non-zero exit for CI
                             (see 'ropuf watch -h' for flags)
  ropuf tracestat <file>...  analyze span JSONL files: stitch cross-process
                             traces, report per-span latency and the critical
                             path (see 'ropuf tracestat -h' for flags)
  ropuf audit <file>...      analyze security audit JSONL from 'serve
                             -audit-out': top CRP consumers, flagged devices
                             with evidence, exhaustion forecasts; -spans
                             correlates events to trace IDs
                             (see 'ropuf audit -h' for flags)

observability (before the subcommand; 'fleet' also accepts them after):
  -metrics-addr addr         serve /metrics, /healthz, /debug/pprof while running
  -trace-out file            stream span events as JSON lines
  -log-level level           structured JSON logs on stderr (debug..error)
`)
}

func run(ctx context.Context, args []string) error {
	switch args[0] {
	case "list":
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	case "all":
		return runExperiments(ctx, []string{"all"})
	case "experiment", "exp":
		if len(args) < 2 {
			return fmt.Errorf("experiment requires at least one ID (try 'ropuf list')")
		}
		return runExperiments(ctx, args[1:])
	case "verify":
		return runVerify()
	case "rtl":
		return runRTL(args[1:])
	case "fleet":
		return runFleet(ctx, args[1:])
	case "serve":
		return runServe(ctx, args[1:])
	case "loadgen":
		return runLoadgen(ctx, args[1:])
	case "watch":
		return runWatch(ctx, args[1:])
	case "tracestat":
		return runTracestat(args[1:])
	case "audit":
		return runAudit(args[1:])
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// obsSession wires the optional observability endpoints of a long-running
// command: a metric registry (always), an HTTP server when addr is set, and
// a JSONL span trace when tracePath is set.
type obsSession struct {
	Registry  *obs.Registry
	Tracer    *obs.Tracer
	server    *obs.Server
	traceFile *os.File
}

func openObs(addr, tracePath string) (*obsSession, error) {
	s := &obsSession{Registry: obs.NewRegistry()}
	if addr != "" {
		srv, err := obs.Serve(addr, s.Registry)
		if err != nil {
			return nil, err
		}
		s.server = srv
		fmt.Fprintf(os.Stderr, "serving /metrics, /healthz, /debug/pprof on http://%s\n", srv.Addr())
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("trace output: %w", err)
		}
		s.traceFile = f
		s.Tracer = obs.NewTracer(obs.NewJSONLSink(f), obs.WithService("ropuf"))
	}
	return s, nil
}

// Close flushes the trace file and stops the metrics server. Safe on a
// partially opened session.
func (s *obsSession) Close() {
	if s.server != nil {
		_ = s.server.Close()
	}
	if s.traceFile != nil {
		_ = s.traceFile.Sync()
		_ = s.traceFile.Close()
	}
}

// runRTL emits the Fig. 1 architecture as synthesizable Verilog:
// "ropuf rtl [stages]" (default 5 stages) writes a configurable-RO PUF pair
// module to stdout.
func runRTL(args []string) error {
	stages := 5
	if len(args) > 0 {
		if _, err := fmt.Sscanf(args[0], "%d", &stages); err != nil {
			return fmt.Errorf("rtl: stage count %q: %w", args[0], err)
		}
	}
	return circuit.WriteVerilogPair(os.Stdout, fmt.Sprintf("cro_puf_pair_n%d", stages), stages, 16)
}

// runFleet exercises the batch layer end to end: fabricate a synthetic
// device fleet, enroll it concurrently, re-measure every device under
// noisy environments, and report throughput plus the fleet counters. With
// -metrics-addr the whole run is scrapable live; cancellation (Ctrl-C)
// stops dispatch, reports what completed, and still prints the counters.
func runFleet(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	numDevices := fs.Int("devices", 256, "number of synthetic devices")
	pairs := fs.Int("pairs", 32, "PUF pairs per device")
	stages := fs.Int("stages", 13, "ring stages per pair")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	modeName := fs.String("mode", "case2", "selection mode: case1 or case2")
	threshold := fs.Float64("threshold", 0, "enrollment margin threshold (ps)")
	envs := fs.Int("envs", 3, "noisy re-measurement environments per device")
	noise := fs.Float64("noise", 2, "re-measurement noise sigma (ps)")
	seed := fs.Uint64("seed", 1, "fleet fabrication seed")
	addr := fs.String("metrics-addr", *metricsAddr, "serve /metrics, /healthz and /debug/pprof on this address while the batch runs")
	trace := fs.String("trace-out", *traceOut, "write span events as JSON lines to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	var mode core.Mode
	switch *modeName {
	case "case1":
		mode = core.Case1
	case "case2":
		mode = core.Case2
	default:
		return fmt.Errorf("fleet: unknown mode %q (want case1 or case2)", *modeName)
	}

	devices, err := fleet.Synthetic(*numDevices, *pairs, *stages, *seed)
	if err != nil {
		return err
	}
	session, err := openObs(*addr, *trace)
	if err != nil {
		return err
	}
	defer session.Close()
	logger, err := newLogger(*logLevel)
	if err != nil {
		return err
	}
	counters := metrics.NewFleetCounters(session.Registry)
	opt := fleet.Options{Workers: *workers, Mode: mode, Threshold: *threshold,
		Counters: counters, Tracer: session.Tracer, Logger: logger}

	rep, batchErr := fleet.Enroll(ctx, devices, opt)
	if rep == nil {
		return batchErr
	}
	fmt.Printf("enrolled %d/%d devices (%s, Rth=%g ps) in %s — %.0f devices/s\n",
		rep.Enrolled, len(devices), mode, *threshold, rep.Elapsed.Round(time.Microsecond),
		float64(rep.Enrolled)/rep.Elapsed.Seconds())
	for _, res := range rep.Results {
		if res.Err != nil {
			fmt.Printf("  %v\n", res.Err)
		}
	}
	if batchErr != nil {
		// Cancelled mid-batch: everything completed is already reported;
		// surface the counters before bubbling the cancellation up.
		fmt.Printf("counters: %s\n", counters)
		return batchErr
	}

	jobs := make([]fleet.EvalJob, 0, len(devices))
	for i, res := range rep.Results {
		if res.Enrollment == nil {
			continue
		}
		measured := make([][]core.Pair, *envs)
		for e := range measured {
			measured[e] = fleet.Remeasure(devices[i], *noise, *seed+uint64(i**envs+e)+1)
		}
		jobs = append(jobs, fleet.EvalJob{ID: res.ID, Enrollment: res.Enrollment, Envs: measured, RefEnv: -1})
	}
	if len(jobs) == 0 {
		return errors.New("fleet: no devices enrolled (threshold too high?)")
	}
	evalRep, batchErr := fleet.Evaluate(ctx, jobs, opt)
	if evalRep == nil {
		return batchErr
	}
	totalBits, flips := 0, 0
	for _, res := range evalRep.Results {
		if res.Err != nil {
			fmt.Printf("  %v\n", res.Err)
			continue
		}
		if res.Reliability == nil {
			continue // not dispatched before cancellation
		}
		totalBits += res.Reliability.TotalBits
		flips += res.Reliability.Flips
	}
	fmt.Printf("evaluated %d devices x %d environments in %s — %.4f%% flip rate (%d of %d bits)\n",
		evalRep.Evaluated, *envs, evalRep.Elapsed.Round(time.Microsecond),
		100*float64(flips)/float64(max(totalBits, 1)), flips, totalBits)
	fmt.Printf("counters: %s\n", counters)
	return batchErr
}

func runVerify() error {
	checks, err := experiments.NewRunner().Verify()
	if err != nil {
		return err
	}
	failed := 0
	for _, c := range checks {
		mark := "PASS"
		if !c.OK {
			mark = "FAIL"
			failed++
		}
		fmt.Printf("[%s] %-42s %s\n", mark, c.Name, c.Got)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d reproduction checks failed", failed, len(checks))
	}
	fmt.Printf("all %d reproduction checks passed\n", len(checks))
	return nil
}

func runExperiments(ctx context.Context, ids []string) error {
	session, err := openObs(*metricsAddr, *traceOut)
	if err != nil {
		return err
	}
	defer session.Close()
	logger, err := newLogger(*logLevel)
	if err != nil {
		return err
	}
	r := experiments.NewRunner()
	r.Tracer = session.Tracer
	r.Obs = session.Registry
	r.Logger = logger
	all := len(ids) == 1 && ids[0] == "all"
	if all {
		ids = experiments.IDs()
	}
	var results []*experiments.Result
	var batchErr error
	if all && *parallel != 0 {
		results, batchErr = r.RunAllParallel(ctx, *parallel)
	} else {
		for _, id := range ids {
			if err := ctx.Err(); err != nil {
				batchErr = err
				break
			}
			res, err := r.Run(id)
			if err != nil {
				batchErr = err
				break
			}
			results = append(results, res)
		}
	}
	// Completed experiments are printed and persisted even when the batch
	// was cancelled or a later experiment failed.
	for _, res := range results {
		if res == nil {
			continue
		}
		fmt.Println(res.Text)
		if err := writeReport(res); err != nil {
			return errors.Join(batchErr, err)
		}
	}
	return batchErr
}

// writeReport persists one experiment's text when -out is set.
func writeReport(res *experiments.Result) error {
	if *outDir == "" {
		return nil
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(*outDir, res.ID+".txt")
	return os.WriteFile(path, []byte(res.Text), 0o644)
}
