package ropuf_test

// One benchmark per table/figure of the paper (each regenerates the full
// experiment on the cached synthetic datasets), plus ablation benchmarks
// for the design choices called out in DESIGN.md §5.

import (
	"context"
	"testing"

	"ropuf/internal/bits"
	"ropuf/internal/circuit"
	"ropuf/internal/core"
	"ropuf/internal/dataset"
	"ropuf/internal/distill"
	"ropuf/internal/experiments"
	"ropuf/internal/fleet"
	"ropuf/internal/fuzzy"
	"ropuf/internal/measure"
	"ropuf/internal/metrics"
	"ropuf/internal/nist"
	"ropuf/internal/obs"
	"ropuf/internal/rngx"
	"ropuf/internal/silicon"
)

// benchRunner shares generated datasets across all experiment benchmarks.
var benchRunner = experiments.NewRunner()

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	// Warm the dataset caches outside the timed region.
	if _, err := benchRunner.VT(); err != nil {
		b.Fatal(err)
	}
	if _, err := benchRunner.InHouse(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := benchRunner.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableI(b *testing.B)    { benchExperiment(b, "tableI") }
func BenchmarkTableII(b *testing.B)   { benchExperiment(b, "tableII") }
func BenchmarkFig3(b *testing.B)      { benchExperiment(b, "fig3") }
func BenchmarkTableIII(b *testing.B)  { benchExperiment(b, "tableIII") }
func BenchmarkTableIV(b *testing.B)   { benchExperiment(b, "tableIV") }
func BenchmarkFig4(b *testing.B)      { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)      { benchExperiment(b, "fig5") }
func BenchmarkTableV(b *testing.B)    { benchExperiment(b, "tableV") }
func BenchmarkThreshold(b *testing.B) { benchExperiment(b, "threshold") }
func BenchmarkSummary(b *testing.B)   { benchExperiment(b, "summary") }

// Extension experiments (security analysis, long-sequence NIST, related
// work comparison, parity ablation).
func BenchmarkSecurity(b *testing.B)     { benchExperiment(b, "security") }
func BenchmarkNISTLong(b *testing.B)     { benchExperiment(b, "nistlong") }
func BenchmarkMaiti(b *testing.B)        { benchExperiment(b, "maiti") }
func BenchmarkParity(b *testing.B)       { benchExperiment(b, "parity") }
func BenchmarkUtilization(b *testing.B)  { benchExperiment(b, "utilization") }
func BenchmarkDistillerExp(b *testing.B) { benchExperiment(b, "distiller") }
func BenchmarkAging(b *testing.B)        { benchExperiment(b, "aging") }

// --- ablation: selection algorithms -------------------------------------

func selectionInput(n int) (alpha, beta []float64) {
	r := rngx.New(uint64(n))
	alpha = make([]float64, n)
	beta = make([]float64, n)
	for i := 0; i < n; i++ {
		alpha[i] = 10000 + 100*r.Norm()
		beta[i] = 10000 + 100*r.Norm()
	}
	return alpha, beta
}

func BenchmarkSelectCase1(b *testing.B) {
	alpha, beta := selectionInput(15)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.SelectCase1(alpha, beta, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectCase2(b *testing.B) {
	alpha, beta := selectionInput(15)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.SelectCase2(alpha, beta, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectCase1OddConstraint(b *testing.B) {
	alpha, beta := selectionInput(15)
	opt := core.Options{RequireOddStages: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.SelectCase1(alpha, beta, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation: distiller degree ------------------------------------------

func benchDistiller(b *testing.B, degree int) {
	b.Helper()
	ds, err := benchRunner.VT()
	if err != nil {
		b.Fatal(err)
	}
	board := ds.NominalBoards()[0]
	periods, err := board.PeriodsPS(dataset.NominalCondition)
	if err != nil {
		b.Fatal(err)
	}
	d, err := distill.New(degree)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Apply(board.X, board.Y, periods); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistillerDegree1(b *testing.B) { benchDistiller(b, 1) }
func BenchmarkDistillerDegree2(b *testing.B) { benchDistiller(b, 2) }
func BenchmarkDistillerDegree3(b *testing.B) { benchDistiller(b, 3) }
func BenchmarkDistillerDegree4(b *testing.B) { benchDistiller(b, 4) }

// --- ablation: measurement protocol --------------------------------------

func benchMeasurement(b *testing.B, singleton bool) {
	b.Helper()
	die, err := silicon.NewDie(silicon.DefaultParams(), 16, 16, rngx.New(1))
	if err != nil {
		b.Fatal(err)
	}
	ring, err := circuit.NewBuilder(die).BuildRing(13, circuit.DefaultMuxScale, circuit.DefaultWireScale)
	if err != nil {
		b.Fatal(err)
	}
	m := measure.NewMeter(silicon.Nominal, rngx.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if singleton {
			_, err = m.DdiffsSingleton(ring)
		} else {
			_, err = m.Ddiffs(ring)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeasureLeaveOneOut(b *testing.B) { benchMeasurement(b, false) }
func BenchmarkMeasureSingleton(b *testing.B)   { benchMeasurement(b, true) }

// --- supporting kernels ---------------------------------------------------

func BenchmarkNISTShortSuite96(b *testing.B) {
	r := rngx.New(3)
	s := bits.New(96)
	for i := 0; i < 96; i++ {
		s.Append(r.Bool())
	}
	suite := nist.ShortSuite(96)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nist.RunAll(s, suite); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHammingDistance96(b *testing.B) {
	r := rngx.New(4)
	x := bits.New(96)
	y := bits.New(96)
	for i := 0; i < 96; i++ {
		x.Append(r.Bool())
		y.Append(r.Bool())
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bits.MustHammingDistance(x, y)
	}
}

func BenchmarkVTDatasetGeneration(b *testing.B) {
	cfg := dataset.DefaultVTConfig()
	cfg.NumBoards = 10
	cfg.NumEnvBoards = 1
	for i := 0; i < b.N; i++ {
		if _, err := dataset.GenerateVT(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnrollBoardCase2(b *testing.B) {
	ds, err := benchRunner.VT()
	if err != nil {
		b.Fatal(err)
	}
	board := ds.NominalBoards()[0]
	periods, err := board.PeriodsPS(dataset.NominalCondition)
	if err != nil {
		b.Fatal(err)
	}
	numPairs, _, err := dataset.GroupBitsPerBoard(len(periods), 5)
	if err != nil {
		b.Fatal(err)
	}
	pairs := make([]core.Pair, numPairs)
	for p := 0; p < numPairs; p++ {
		base := p * 10
		pairs[p] = core.Pair{Alpha: periods[base : base+5], Beta: periods[base+5 : base+10]}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Enroll(pairs, core.Case2, 0, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModeling(b *testing.B) { benchExperiment(b, "modeling") }

func BenchmarkEntropyExp(b *testing.B)  { benchExperiment(b, "entropy") }
func BenchmarkECCExp(b *testing.B)      { benchExperiment(b, "ecc") }
func BenchmarkSensitivity(b *testing.B) { benchExperiment(b, "sensitivity") }

func BenchmarkGolayDecode(b *testing.B) {
	cw := fuzzy.GolayEncode(0xabc) ^ 0b101000000000001 // 3 errors
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fuzzy.GolayDecode(cw)
	}
}

func BenchmarkTRNGExp(b *testing.B)    { benchExperiment(b, "trng") }
func BenchmarkPairingExp(b *testing.B) { benchExperiment(b, "pairing") }

func BenchmarkMultibitExp(b *testing.B)    { benchExperiment(b, "multibit") }
func BenchmarkMeasurementExp(b *testing.B) { benchExperiment(b, "measurement") }

// --- fleet engine: serial vs parallel batch enrollment --------------------

// fleetBenchDevices lazily fabricates the shared ≥500-device batch.
var fleetBenchDevices []fleet.Device

func fleetBatch(b *testing.B) []fleet.Device {
	b.Helper()
	if fleetBenchDevices == nil {
		devices, err := fleet.Synthetic(512, 32, 15, 7)
		if err != nil {
			b.Fatal(err)
		}
		fleetBenchDevices = devices
	}
	return fleetBenchDevices
}

// benchFleetEnroll measures batch enrollment of the 512-device fleet.
// workers == 0 benchmarks the serial per-device path (a plain core.Enroll
// loop); workers > 0 benchmarks the fleet engine at that pool size.
func benchFleetEnroll(b *testing.B, workers int) {
	devices := fleetBatch(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if workers == 0 {
			for _, d := range devices {
				if _, err := core.Enroll(d.Pairs, core.Case2, 0, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			continue
		}
		rep, err := fleet.Enroll(context.Background(), devices, fleet.Options{Workers: workers, Mode: core.Case2})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failed != 0 {
			b.Fatalf("%d devices failed", rep.Failed)
		}
	}
}

func BenchmarkFleetEnrollSerial(b *testing.B)   { benchFleetEnroll(b, 0) }
func BenchmarkFleetEnroll1Worker(b *testing.B)  { benchFleetEnroll(b, 1) }
func BenchmarkFleetEnroll2Workers(b *testing.B) { benchFleetEnroll(b, 2) }
func BenchmarkFleetEnroll4Workers(b *testing.B) { benchFleetEnroll(b, 4) }
func BenchmarkFleetEnroll8Workers(b *testing.B) { benchFleetEnroll(b, 8) }

// BenchmarkFleetEnroll8WorkersInstrumented measures the fully observed
// path — counters with per-device latency histograms plus a span per
// device into a ring sink — to pin the observability overhead next to the
// uninstrumented pool numbers.
func BenchmarkFleetEnroll8WorkersInstrumented(b *testing.B) {
	devices := fleetBatch(b)
	tracer := obs.NewTracer(obs.NewRingSink(1024))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counters := metrics.NewFleetCounters(obs.NewRegistry())
		rep, err := fleet.Enroll(context.Background(), devices,
			fleet.Options{Workers: 8, Mode: core.Case2, Counters: counters, Tracer: tracer})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failed != 0 {
			b.Fatalf("%d devices failed", rep.Failed)
		}
	}
}

// BenchmarkFleetEvaluate8Workers measures the evaluation stage: every
// enrolled device re-measured under three noisy environments.
func BenchmarkFleetEvaluate8Workers(b *testing.B) {
	devices := fleetBatch(b)
	rep, err := fleet.Enroll(context.Background(), devices, fleet.Options{Workers: 8, Mode: core.Case2})
	if err != nil {
		b.Fatal(err)
	}
	jobs := make([]fleet.EvalJob, len(devices))
	for i, res := range rep.Results {
		envs := make([][]core.Pair, 3)
		for e := range envs {
			envs[e] = fleet.Remeasure(devices[i], 2, uint64(3*i+e))
		}
		jobs[i] = fleet.EvalJob{ID: res.ID, Enrollment: res.Enrollment, Envs: envs, RefEnv: -1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := fleet.Evaluate(context.Background(), jobs, fleet.Options{Workers: 8})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failed != 0 {
			b.Fatalf("%d evaluations failed", rep.Failed)
		}
	}
}

func BenchmarkSelectMulti(b *testing.B) {
	alpha, beta := selectionInput(13)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.SelectMulti(core.Case2, alpha, beta, 4, 0, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Case2(b *testing.B) { benchExperiment(b, "fig4case2") }
