// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload (auth, provision or corpus) against the program the way
// users run it, checks every output, and prints the metrics named in
// BENCHMARK.json. See README.md in this directory for the metrics, the
// workloads and the layer map.
//
// Usage (perfbench/run.sh builds the binaries and supplies -root and
// -server):
//
//	perfbench -root <checkout> -server <ropuf binary> \
//	    --workload auth|provision|corpus --seed N --seconds S --trace 0|1
//
// With --trace 0 the last stdout line carries every end-to-end metric;
// with --trace 1 it carries every per-layer metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ropuf/internal/fleet"
	"ropuf/internal/rngx"
)

// bench is one benchmark invocation's environment.
type bench struct {
	work    string // this run's scratch directory, removed at exit
	bin     string // the ropuf binary
	seed    uint64
	seconds int
	conns   int // nproc: client connections and corpus workers
}

// sub derives an independent seed for one input stream (the fleet, the
// server's challenge RNG, the corpus, ...) from the workload seed, so one
// --seed fixes every input.
func (b *bench) sub(stream uint64) uint64 {
	return rngx.New(b.seed ^ stream*0x9E3779B97F4A7C15).Uint64()
}

func (b *bench) logf(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

// measured is one workload run's outcome: op counts, failed correctness
// gates, and every metric value it measured, by BENCHMARK.json name.
type measured struct {
	attempted, failed int
	problems          []string
	m                 map[string]float64
}

func newMeasured() *measured { return &measured{m: map[string]float64{}} }

func (r *measured) set(name string, v float64) { r.m[name] = v }

// gate records a failed correctness check; it never stops the run.
func (r *measured) gate(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// plan sets how many times a run repeats its slow, noisy phases to report
// their median: set-ups, server launches (corpus: read-backs) and drains.
type plan struct {
	setups, readies, drains int
}

var (
	fullPlan  = plan{setups: 3, readies: 9, drains: 3}
	tracePlan = plan{setups: 1, readies: 1, drains: 1}
)

// probeDevices is how many of a workload's devices the layer probes time.
const probeDevices = 256

// keepProbe copies out the first probeDevices devices so the rest of the
// fleet's silicon can be freed.
func keepProbe(devices []fleet.Device) []fleet.Device {
	return append([]fleet.Device(nil), devices[:min(len(devices), probeDevices)]...)
}

// repeatSetup runs setup `setups` times, each into a fresh directory, and
// returns the last result and its directory. It sets setup_s to the median
// CPU time (user + sys of this process) one set-up took, and logs wall
// time beside it: set-up is deterministic work, and over ten-run sets its
// CPU time spread 0.06-0.20 (interquartile range over median) against
// 0.18-0.73 for its wall time, which also counts fsync waits and steal.
// Every repetition must leave a data dir of the same size.
func repeatSetup[T any](b *bench, r *measured, name string, setups int, setup func(dir string) (T, error)) (T, string, error) {
	var fx T
	var cpu, wall []time.Duration
	var dir string
	var size int64
	for i := 0; i < setups; i++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return fx, "", err
			}
		}
		dir = filepath.Join(b.work, fmt.Sprintf("%s-setup-%d", name, i))
		c0, err := processCPU()
		if err != nil {
			return fx, "", err
		}
		t0 := time.Now()
		if fx, err = setup(dir); err != nil {
			return fx, "", err
		}
		wall = append(wall, time.Since(t0))
		c1, err := processCPU()
		if err != nil {
			return fx, "", err
		}
		cpu = append(cpu, c1-c0)
		sz, err := dirBytes(dir)
		if err != nil {
			return fx, "", err
		}
		if i > 0 && sz != size {
			return fx, "", fmt.Errorf("%s set-up is not deterministic: %d then %d bytes", name, size, sz)
		}
		size = sz
	}
	r.set("setup_s", medianSeconds(cpu))
	b.logf("%s: set-up cpu %v, wall %v", name, cpu, wall)
	return fx, dir, nil
}

// processCPU is this process's user + sys CPU time so far, all threads.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// serving runs a workload that drives `ropuf serve`. Untraced, it is one
// full run. Traced, it is that run and then a shorter one with spans on
// both sides; the result is the traced one, with the op counts and gates
// of both, the untraced run's end-to-end figures, and traced minus
// untraced as the tracing overhead.
func (b *bench) serving(ctx context.Context, name string, traced bool,
	run func(ctx context.Context, name string, p plan, traced bool) (*measured, error)) (*measured, error) {
	if !traced {
		return run(ctx, name, fullPlan, false)
	}
	plain, err := run(ctx, name+"-plain", fullPlan, false)
	if err != nil {
		return nil, err
	}
	r, err := run(ctx, name+"-traced", tracePlan, true)
	if err != nil {
		return nil, err
	}
	r.set("trace.overhead_p50_ms", r.m["p50_ms"]-plain.m["p50_ms"])
	r.set("trace.overhead_cpu_ms_per_op", r.m["cpu_ms_per_op"]-plain.m["cpu_ms_per_op"])
	for _, m := range unbounded {
		r.set(m, plain.m[m]) // end-to-end figures come from the untraced run
	}
	r.attempted += plain.attempted
	r.failed += plain.failed
	r.problems = append(r.problems, plain.problems...)
	return r, nil
}

// spec is the part of BENCHMARK.json the benchmark prints from.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// diagnostics are printed with every run, traced or not, so a noisy or
// off-regime run explains itself.
var diagnostics = []string{"host.steal_frac", "proc.nvcsw_per_op", "client.late_p99_ms", "authserve.wal.compactions"}

// unbounded are the end-to-end figures that are timed: every run logs them
// and traced runs report them (from their untraced run), but they carry no
// bound. On the 2-vCPU guest this benchmark was built on, the host's speed
// shifts for minutes at a time (hypervisor steal between 0 and 35 %, and
// CPU time of identical work moving by up to 40 % between phases), so ten
// runs of identical code spread them by 0.1-2.5 (interquartile range over
// median) while memory and disk stayed under 0.08. See README.md.
var unbounded = []string{"cpu_ms_per_op", "ready_s", "drain_s", "ops_per_s", "p50_ms", "tail_ms"}

func main() {
	root := flag.String("root", ".", "checkout root (holds BENCHMARK.json and go.mod)")
	bin := flag.String("server", "", "ropuf binary built from this checkout")
	workload := flag.String("workload", "", "auth, provision or corpus")
	seed := flag.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Int("seconds", 10, "target length of the timed phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	if err := run(*root, *bin, *workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(root, bin, workload string, seed uint64, seconds, trace int) error {
	if bin == "" {
		return errors.New("-server is required")
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("bad --seconds %d or --trace %d", seconds, trace)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	work := filepath.Join(root, ".bench_build", "work", workload+"-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	b := &bench{work: work, bin: bin, seed: seed, seconds: seconds,
		conns: runtime.NumCPU()}
	b.logf("perfbench: workload %s, seed %d, %ds, trace %d, nproc %d, GOMAXPROCS %d, %s",
		workload, seed, seconds, trace, b.conns, runtime.GOMAXPROCS(0), runtime.Version())

	var r *measured
	switch workload {
	case "auth":
		r, err = b.serving(ctx, workload, trace == 1, b.authRun)
	case "provision":
		r, err = b.serving(ctx, workload, trace == 1, b.provisionRun)
	case "corpus":
		r, err = b.corpus(ctx, trace == 1)
	default:
		return fmt.Errorf("unknown --workload %q (want auth, provision or corpus)", workload)
	}
	if err != nil {
		return err
	}
	for _, p := range r.problems {
		b.logf("GATE FAILED: %s", p)
	}
	diag := map[string]float64{}
	for _, name := range diagnostics {
		diag[name] = r.m[name]
	}
	line, err := json.Marshal(diag)
	if err != nil {
		return err
	}
	b.logf("diagnostics %s", line)
	units := map[string]string{}
	for _, ms := range append(sp.EndToEnd, sp.PerLayer...) {
		units[ms.Name] = ms.Unit
	}
	var timed []string
	for _, m := range unbounded {
		timed = append(timed, fmt.Sprintf("%s=%g %s", m, r.m[m], units[m]))
	}
	b.logf("unbounded %s", strings.Join(timed, ", "))

	want := sp.EndToEnd
	if trace == 1 {
		want = sp.PerLayer
	}
	res := result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	var missing, idle []string
	for _, ms := range want {
		v, ok := r.m[ms.Name]
		switch {
		case !ok && trace == 1:
			// A layer this workload does not exercise (its "should not
			// move" side) did no work here, and reads 0.
			idle = append(idle, ms.Name)
		case !ok || math.IsNaN(v) || math.IsInf(v, 0):
			missing = append(missing, ms.Name)
			continue
		}
		res.Metrics[ms.Name] = metricValue{Value: v, Unit: ms.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("workload %s did not measure %v", workload, missing)
	}
	if len(idle) > 0 {
		b.logf("layers not exercised by %s (reported as 0): %v", workload, idle)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
