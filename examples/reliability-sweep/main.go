// Reliability-sweep: explore the paper's central trade-off — reliability
// threshold Rth versus bit yield — and the effect of ring length n on
// voltage-variation reliability, across the traditional, 1-out-of-8 and
// configurable (Case-1/Case-2) RO PUFs.
//
// Both sweeps run on the fleet engine: the per-mode enrollments and the
// per-ring-length enroll/evaluate passes are batch jobs over a bounded
// worker pool rather than hand-rolled loops.
//
// The run is fully observable: fleet counters and per-device latency
// histograms live in an obs.Registry (serve them live with -metrics-addr),
// and -trace-out streams every batch/device span as JSON lines.
//
// Run with:
//
//	go run ./examples/reliability-sweep [-metrics-addr :9090] [-trace-out trace.jsonl]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"ropuf/internal/baseline"
	"ropuf/internal/core"
	"ropuf/internal/dataset"
	"ropuf/internal/fleet"
	"ropuf/internal/metrics"
	"ropuf/internal/obs"
	"ropuf/internal/silicon"
)

var (
	metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address while the sweeps run")
	traceOut    = flag.String("trace-out", "", "write span events as JSON lines to this file")
)

func main() {
	flag.Parse()
	reg := obs.NewRegistry()
	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "serving observability endpoints on http://%s\n", srv.Addr())
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		tracer = obs.NewTracer(obs.NewJSONLSink(f))
	}
	counters := metrics.NewFleetCounters(reg)
	opt := fleet.Options{Counters: counters, Tracer: tracer}

	sweepThreshold(opt)
	sweepRingLength(opt)
	fmt.Printf("fleet counters: %s\n", counters)
	printDeviceLatencies(reg)
}

// printDeviceLatencies summarizes the per-device latency histograms the
// fleet engine recorded: observation count and mean per stage.
func printDeviceLatencies(reg *obs.Registry) {
	for _, f := range reg.Snapshot() {
		if f.Name != metrics.MetricDeviceSeconds {
			continue
		}
		for _, s := range f.Series {
			if s.Count == 0 {
				continue
			}
			fmt.Printf("per-device %s latency: %d devices, mean %.1f µs\n",
				s.Labels["stage"], s.Count, 1e6*s.Sum/float64(s.Count))
		}
	}
}

// sweepThreshold reproduces the §IV.E trade-off on one in-house board:
// bits surviving an enrollment margin threshold. Both selection modes are
// enrolled once (threshold 0) in a single fleet batch; the per-Rth yield
// is then read off the enrolled margins.
func sweepThreshold(opt fleet.Options) {
	cfg := dataset.DefaultInHouseConfig()
	cfg.NumBoards = 1
	boards, err := dataset.GenerateInHouse(cfg)
	if err != nil {
		log.Fatal(err)
	}
	chip := boards[0]
	pairs, err := chip.MeasurePairs(silicon.Nominal)
	if err != nil {
		log.Fatal(err)
	}
	delays, err := chip.FullRingDelays(silicon.Nominal)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := fleet.Enroll(context.Background(), []fleet.Device{
		{ID: "case1", Pairs: pairs, Mode: core.Case1},
		{ID: "case2", Pairs: pairs, Mode: core.Case2},
	}, opt)
	if err != nil {
		log.Fatal(err)
	}
	for _, res := range rep.Results {
		if res.Err != nil {
			log.Fatal(res.Err)
		}
	}
	fmt.Println("bits surviving enrollment threshold (one board, 32 pairs):")
	fmt.Printf("%10s %12s %12s %12s\n", "Rth (ps)", "traditional", "Case-1", "Case-2")
	for _, rth := range []float64{0, 3, 6, 9, 12, 15, 20, 30} {
		trad := 0
		if e, err := baseline.EnrollTraditional(delays, rth); err == nil {
			trad = e.Response.Len()
		}
		c1 := bitsAboveThreshold(rep.Results[0].Enrollment, rth)
		c2 := bitsAboveThreshold(rep.Results[1].Enrollment, rth)
		fmt.Printf("%10.1f %12d %12d %12d\n", rth, trad, c1, c2)
	}
	fmt.Println()
}

// bitsAboveThreshold counts the enrolled pairs whose margin survives rth.
func bitsAboveThreshold(e *core.Enrollment, rth float64) int {
	n := 0
	for i, sel := range e.Selections {
		if e.Mask[i] && sel.Margin >= rth {
			n++
		}
	}
	return n
}

// sweepRingLength shows voltage-variation reliability versus ring length
// on a VT-style environment board: each ring length is one fleet device,
// enrolled at the nominal condition and evaluated across the voltage sweep
// in a single concurrent batch.
func sweepRingLength(opt fleet.Options) {
	cfg := dataset.DefaultVTConfig()
	cfg.NumBoards = 6
	cfg.NumEnvBoards = 1
	ds, err := dataset.GenerateVT(cfg)
	if err != nil {
		log.Fatal(err)
	}
	board := ds.EnvBoards()[0]
	sweep := dataset.VoltageSweep()
	nominal, err := board.PeriodsPS(dataset.NominalCondition)
	if err != nil {
		log.Fatal(err)
	}
	ns := []int{3, 5, 7, 9, 11, 13, 15}

	pairsFor := func(periods []float64, n int) []core.Pair {
		numPairs, _, err := dataset.GroupBitsPerBoard(len(periods), n)
		if err != nil {
			log.Fatal(err)
		}
		out := make([]core.Pair, numPairs)
		for p := 0; p < numPairs; p++ {
			base := p * 2 * n
			out[p] = core.Pair{Alpha: periods[base : base+n], Beta: periods[base+n : base+2*n]}
		}
		return out
	}

	// One fleet device per ring length, enrolled at the nominal condition.
	devices := make([]fleet.Device, len(ns))
	for i, n := range ns {
		devices[i] = fleet.Device{ID: fmt.Sprintf("n=%d", n), Pairs: pairsFor(nominal, n)}
	}
	enrollOpt := opt
	enrollOpt.Mode = core.Case1
	rep, err := fleet.Enroll(context.Background(), devices, enrollOpt)
	if err != nil {
		log.Fatal(err)
	}

	// Evaluate every enrollment across the non-nominal sweep conditions,
	// referenced against the enrolled response.
	jobs := make([]fleet.EvalJob, len(ns))
	for i, res := range rep.Results {
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		var envs [][]core.Pair
		for _, c := range sweep {
			if c == dataset.NominalCondition {
				continue
			}
			periods, err := board.PeriodsPS(c)
			if err != nil {
				log.Fatal(err)
			}
			envs = append(envs, pairsFor(periods, ns[i]))
		}
		jobs[i] = fleet.EvalJob{ID: res.ID, Enrollment: res.Enrollment, Envs: envs, RefEnv: -1}
	}
	evalRep, err := fleet.Evaluate(context.Background(), jobs, opt)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("voltage-sweep flip rate (% of bit positions) vs ring length:")
	fmt.Printf("%6s %8s %14s %14s\n", "n", "bits", "configurable", "traditional")
	for i, n := range ns {
		res := evalRep.Results[i]
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		numPairs := len(devices[i].Pairs)

		budget := 2 * n * numPairs
		trad, err := baseline.EnrollTraditional(nominal[:budget], 0)
		if err != nil {
			log.Fatal(err)
		}
		tradFlipped := map[int]bool{}
		for _, c := range sweep {
			if c == dataset.NominalCondition {
				continue
			}
			periods, err := board.PeriodsPS(c)
			if err != nil {
				log.Fatal(err)
			}
			resp, err := trad.Evaluate(periods[:budget])
			if err != nil {
				log.Fatal(err)
			}
			for b := 0; b < resp.Len(); b++ {
				if resp.Bit(b) != trad.Response.Bit(b) {
					tradFlipped[b] = true
				}
			}
		}
		tradPct := 100 * float64(len(tradFlipped)) / float64(trad.Response.Len())
		fmt.Printf("%6d %8d %13.2f%% %13.2f%%\n", n, numPairs,
			res.Reliability.FlippedPositionPercent(), tradPct)
	}
	fmt.Println()
}
