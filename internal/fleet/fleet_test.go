package fleet

import (
	"context"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"ropuf/internal/core"
	"ropuf/internal/metrics"
	"ropuf/internal/obs"
)

func testFleet(t *testing.T, numDevices int) []Device {
	t.Helper()
	devices, err := Synthetic(numDevices, 16, 7, 42)
	if err != nil {
		t.Fatal(err)
	}
	return devices
}

func TestEnrollMatchesSerial(t *testing.T) {
	devices := testFleet(t, 24)
	for _, mode := range []core.Mode{core.Case1, core.Case2} {
		rep, err := Enroll(context.Background(), devices, Options{Workers: 4, Mode: mode, Threshold: 1})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Enrolled != len(devices) || rep.Failed != 0 {
			t.Fatalf("%v: enrolled %d failed %d, want %d/0", mode, rep.Enrolled, rep.Failed, len(devices))
		}
		for i, d := range devices {
			res := rep.Results[i]
			if res.ID != d.ID || res.Err != nil {
				t.Fatalf("%v: result %d = {%s, %v}, want %s", mode, i, res.ID, res.Err, d.ID)
			}
			serial, err := core.Enroll(d.Pairs, mode, 1, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Enrollment.Response.Equal(serial.Response) {
				t.Fatalf("%v: device %s: fleet response differs from serial enrollment", mode, d.ID)
			}
		}
	}
}

func TestEnrollErrorIsolation(t *testing.T) {
	devices := testFleet(t, 8)
	// Poison device 2 with a NaN measurement and give device 5 no pairs.
	devices[2].Pairs[0].Alpha[3] = math.NaN()
	devices[5].Pairs = nil
	rep, err := Enroll(context.Background(), devices, Options{Workers: 3, Mode: core.Case1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Enrolled != 6 || rep.Failed != 2 {
		t.Fatalf("enrolled %d failed %d, want 6/2", rep.Enrolled, rep.Failed)
	}
	for i, res := range rep.Results {
		bad := i == 2 || i == 5
		if bad && (res.Err == nil || res.Enrollment != nil) {
			t.Fatalf("device %d should have failed, got %+v", i, res)
		}
		if !bad && (res.Err != nil || res.Enrollment == nil) {
			t.Fatalf("device %d should have enrolled, got err %v", i, res.Err)
		}
	}
}

// stageSeconds reads a stage's accumulated wall-clock from the counters'
// registry.
func stageSeconds(reg *obs.Registry, stage string) float64 {
	for _, f := range reg.Snapshot() {
		if f.Name != metrics.MetricStageSeconds {
			continue
		}
		for _, s := range f.Series {
			if s.Labels["stage"] == stage {
				return s.Sum
			}
		}
	}
	return 0
}

func TestEnrollThresholdCounters(t *testing.T) {
	devices := testFleet(t, 10)
	reg := obs.NewRegistry()
	c := metrics.NewFleetCounters(reg)
	rep, err := Enroll(context.Background(), devices, Options{Mode: core.Case2, Threshold: 40, Counters: c})
	if err != nil {
		t.Fatal(err)
	}
	enrolledPairs := 0
	for i, d := range devices {
		if rep.Results[i].Enrollment != nil {
			enrolledPairs += len(d.Pairs)
		}
	}
	if got := rep.PairsKept + rep.PairsRejected; got != enrolledPairs {
		t.Fatalf("kept %d + rejected %d = %d, want %d", rep.PairsKept, rep.PairsRejected, got, enrolledPairs)
	}
	if rep.PairsRejected == 0 {
		t.Fatal("threshold 40 ps rejected no pairs; counter not exercised")
	}
	if c.PairsKept.Load() != int64(rep.PairsKept) || c.PairsRejected.Load() != int64(rep.PairsRejected) {
		t.Fatalf("counters (%d/%d) disagree with report (%d/%d)",
			c.PairsKept.Load(), c.PairsRejected.Load(), rep.PairsKept, rep.PairsRejected)
	}
	if stageSeconds(reg, "enroll") <= 0 {
		t.Fatal("enroll stage wall-clock not recorded")
	}
}

func TestEnrollPerDeviceModeOverride(t *testing.T) {
	devices := testFleet(t, 2)
	devices[1].Mode = core.Case2
	rep, err := Enroll(context.Background(), devices, Options{Mode: core.Case1})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Results[0].Enrollment.Mode; got != core.Case1 {
		t.Fatalf("device 0 mode = %v, want Case-1", got)
	}
	if got := rep.Results[1].Enrollment.Mode; got != core.Case2 {
		t.Fatalf("device 1 mode = %v, want Case-2 override", got)
	}
}

func TestEnrollValidation(t *testing.T) {
	devices := testFleet(t, 1)
	if _, err := Enroll(context.Background(), nil, Options{Mode: core.Case1}); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := Enroll(context.Background(), devices, Options{Mode: core.Case1, Threshold: -1}); err == nil {
		t.Fatal("negative threshold accepted")
	}
	if _, err := Enroll(context.Background(), devices, Options{}); err == nil {
		t.Fatal("zero mode accepted")
	}
}

// TestEnrollRejectsNaNThreshold pins that a NaN threshold, which passes a
// "< 0" test, fails the batch up front with no report, before any device
// is dispatched to fail with "no bits".
func TestEnrollRejectsNaNThreshold(t *testing.T) {
	c := metrics.NewFleetCounters(obs.NewRegistry())
	rep, err := Enroll(context.Background(), testFleet(t, 3), Options{Mode: core.Case2, Threshold: math.NaN(), Counters: c})
	if err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("NaN threshold: %v, want an error naming NaN", err)
	}
	if rep != nil {
		t.Fatalf("NaN threshold returned a report: %+v", rep)
	}
	if n := c.DevicesEnrolled.Load() + c.DevicesFailed.Load(); n != 0 {
		t.Fatalf("NaN threshold dispatched %d devices", n)
	}
}

func TestEnrollCancelledBeforeStart(t *testing.T) {
	devices := testFleet(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Enroll(ctx, devices, Options{Mode: core.Case1})
	if err == nil {
		t.Fatal("cancelled batch returned no error")
	}
	if rep == nil {
		t.Fatal("cancelled batch returned no report")
	}
	if rep.Enrolled != 0 {
		t.Fatalf("pre-cancelled batch enrolled %d devices, want 0", rep.Enrolled)
	}
}

func TestDispatchStopsAfterMidFlightCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var processed atomic.Int64
	err := Dispatch(ctx, 16, 1, func(i int) {
		processed.Add(1)
		cancel() // first completed job cancels the batch
	})
	if err == nil {
		t.Fatal("dispatch ignored cancellation")
	}
	// The first job cancels; at most one more may already be in the
	// dispatcher's send when cancellation lands.
	if n := processed.Load(); n > 2 {
		t.Fatalf("%d jobs ran after cancellation, want <= 2", n)
	}
}

func TestEvaluateReliability(t *testing.T) {
	devices := testFleet(t, 6)
	reg := obs.NewRegistry()
	c := metrics.NewFleetCounters(reg)
	rep, err := Enroll(context.Background(), devices, Options{Mode: core.Case1, Counters: c})
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]EvalJob, len(devices))
	for i, res := range rep.Results {
		jobs[i] = EvalJob{
			ID:         res.ID,
			Enrollment: res.Enrollment,
			// A noiseless re-measurement plus a noisy one, referenced
			// against the enrolled response.
			Envs:   [][]core.Pair{devices[i].Pairs, Remeasure(devices[i], 3, uint64(i))},
			RefEnv: -1,
		}
	}
	evalRep, err := Evaluate(context.Background(), jobs, Options{Workers: 2, Counters: c})
	if err != nil {
		t.Fatal(err)
	}
	if evalRep.Evaluated != len(jobs) || evalRep.Failed != 0 {
		t.Fatalf("evaluated %d failed %d, want %d/0", evalRep.Evaluated, evalRep.Failed, len(jobs))
	}
	for i, res := range evalRep.Results {
		if res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
		// The noiseless environment must regenerate the enrolled response.
		if !res.Responses[0].Equal(rep.Results[i].Enrollment.Response) {
			t.Fatalf("job %d: noiseless re-measurement flipped bits", i)
		}
		if res.Reliability.NumBits != rep.Results[i].Enrollment.NumBits() {
			t.Fatalf("job %d: reliability over %d bits, enrolled %d", i, res.Reliability.NumBits, rep.Results[i].Enrollment.NumBits())
		}
	}
	if c.Evaluations.Load() != int64(len(jobs)) {
		t.Fatalf("Evaluations counter = %d, want %d", c.Evaluations.Load(), len(jobs))
	}
	if stageSeconds(reg, "evaluate") <= 0 {
		t.Fatal("evaluate stage wall-clock not recorded")
	}
}

func TestEvaluateRefEnv(t *testing.T) {
	devices := testFleet(t, 1)
	rep, err := Enroll(context.Background(), devices, Options{Mode: core.Case2})
	if err != nil {
		t.Fatal(err)
	}
	enr := rep.Results[0].Enrollment
	noisy := Remeasure(devices[0], 5, 99)
	job := EvalJob{
		ID:         "d",
		Enrollment: enr,
		Envs:       [][]core.Pair{devices[0].Pairs, noisy, noisy},
		RefEnv:     0,
	}
	evalRep, err := Evaluate(context.Background(), []EvalJob{job}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rel := evalRep.Results[0].Reliability
	if rel == nil {
		t.Fatal(evalRep.Results[0].Err)
	}
	// Two non-reference environments compared against env 0.
	if rel.TotalBits != 2*enr.NumBits() {
		t.Fatalf("TotalBits = %d, want %d (reference env excluded)", rel.TotalBits, 2*enr.NumBits())
	}
}

func TestEvaluateErrorIsolation(t *testing.T) {
	devices := testFleet(t, 3)
	rep, err := Enroll(context.Background(), devices, Options{Mode: core.Case1})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []EvalJob{
		{ID: "ok", Enrollment: rep.Results[0].Enrollment, Envs: [][]core.Pair{devices[0].Pairs}, RefEnv: -1},
		// Wrong pair count: per-job error, not a batch abort.
		{ID: "short", Enrollment: rep.Results[1].Enrollment, Envs: [][]core.Pair{devices[1].Pairs[:4]}, RefEnv: -1},
		// Reference environment out of range.
		{ID: "badref", Enrollment: rep.Results[2].Enrollment, Envs: [][]core.Pair{devices[2].Pairs}, RefEnv: 3},
		{ID: "noenr", Enrollment: nil, Envs: [][]core.Pair{devices[0].Pairs}, RefEnv: -1},
		{ID: "noenv", Enrollment: rep.Results[0].Enrollment, RefEnv: -1},
	}
	evalRep, err := Evaluate(context.Background(), jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if evalRep.Evaluated != 1 || evalRep.Failed != 4 {
		t.Fatalf("evaluated %d failed %d, want 1/4", evalRep.Evaluated, evalRep.Failed)
	}
	if evalRep.Results[0].Err != nil {
		t.Fatal(evalRep.Results[0].Err)
	}
	for _, i := range []int{1, 2, 3, 4} {
		if evalRep.Results[i].Err == nil {
			t.Fatalf("job %d (%s) should have failed", i, jobs[i].ID)
		}
	}
	if _, err := Evaluate(context.Background(), nil, Options{}); err == nil {
		t.Fatal("empty evaluation batch accepted")
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	a, err := Synthetic(4, 3, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthetic(4, 3, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for d := range a {
		if a[d].ID != b[d].ID {
			t.Fatalf("device %d IDs differ", d)
		}
		for p := range a[d].Pairs {
			for s := range a[d].Pairs[p].Alpha {
				if a[d].Pairs[p].Alpha[s] != b[d].Pairs[p].Alpha[s] ||
					a[d].Pairs[p].Beta[s] != b[d].Pairs[p].Beta[s] {
					t.Fatalf("device %d pair %d stage %d differs across runs", d, p, s)
				}
			}
		}
	}
	if _, err := Synthetic(0, 1, 1, 1); err == nil {
		t.Fatal("Synthetic accepted zero devices")
	}
	// Remeasure must be deterministic in its seed and must not mutate the
	// device's enrollment-time measurement.
	before := a[0].Pairs[0].Alpha[0]
	m1 := Remeasure(a[0], 2, 5)
	m2 := Remeasure(a[0], 2, 5)
	if a[0].Pairs[0].Alpha[0] != before {
		t.Fatal("Remeasure mutated the device's pairs")
	}
	if m1[0].Alpha[0] != m2[0].Alpha[0] {
		t.Fatal("Remeasure not deterministic in seed")
	}
	if m1[0].Alpha[0] == before {
		t.Fatal("Remeasure with sigma > 0 returned the identical measurement")
	}
}

// TestEnrollObservability drives a traced, counted batch end to end and
// checks the emitted spans and per-device latency histograms.
func TestEnrollObservability(t *testing.T) {
	devices := testFleet(t, 6)
	// Poison one device so the error attribute path is covered.
	devices[3].Pairs = nil
	ring := obs.NewRingSink(64)
	reg := obs.NewRegistry()
	opt := Options{Workers: 2, Mode: core.Case2, Counters: metrics.NewFleetCounters(reg), Tracer: obs.NewTracer(ring)}
	rep, err := Enroll(context.Background(), devices, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Enrolled != 5 || rep.Failed != 1 {
		t.Fatalf("enrolled %d failed %d, want 5/1", rep.Enrolled, rep.Failed)
	}

	events := ring.Events()
	if len(events) != len(devices)+1 {
		t.Fatalf("%d spans, want %d device spans + 1 batch span", len(events), len(devices))
	}
	var batch obs.SpanEvent
	deviceSpans := 0
	errored := 0
	for _, ev := range events {
		switch ev.Name {
		case "fleet.enroll":
			batch = ev
		case "fleet.enroll.device":
			deviceSpans++
			if ev.Attrs["error"] != "" {
				errored++
			}
		default:
			t.Fatalf("unexpected span %q", ev.Name)
		}
	}
	if deviceSpans != len(devices) || errored != 1 {
		t.Fatalf("device spans = %d (errored %d), want %d/1", deviceSpans, errored, len(devices))
	}
	if batch.Attrs["devices"] != "6" || batch.Attrs["enrolled"] != "5" || batch.Attrs["failed"] != "1" {
		t.Fatalf("batch span attrs = %v", batch.Attrs)
	}
	for _, ev := range events {
		if ev.Name == "fleet.enroll.device" && ev.ParentID != batch.ID {
			t.Fatalf("device span not parented to batch span: %+v", ev)
		}
	}

	// Per-device latencies land in the counters' registry, one observation
	// per processed device.
	found := false
	for _, f := range reg.Snapshot() {
		if f.Name != metrics.MetricDeviceSeconds {
			continue
		}
		found = true
		if len(f.Series) != 1 || f.Series[0].Labels["stage"] != "enroll" {
			t.Fatalf("device histogram series = %+v", f.Series)
		}
		if f.Series[0].Count != int64(len(devices)) {
			t.Fatalf("device histogram count = %d, want %d", f.Series[0].Count, len(devices))
		}
	}
	if !found {
		t.Fatalf("registry has no %s family", metrics.MetricDeviceSeconds)
	}
}

// TestEvaluateObservability mirrors the enrollment test for the evaluate
// stage.
func TestEvaluateObservability(t *testing.T) {
	devices := testFleet(t, 4)
	rep, err := Enroll(context.Background(), devices, Options{Mode: core.Case2})
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]EvalJob, len(devices))
	for i, res := range rep.Results {
		jobs[i] = EvalJob{ID: res.ID, Enrollment: res.Enrollment,
			Envs: [][]core.Pair{Remeasure(devices[i], 1, uint64(i))}, RefEnv: -1}
	}
	ring := obs.NewRingSink(64)
	reg := obs.NewRegistry()
	evalRep, err := Evaluate(context.Background(), jobs,
		Options{Workers: 2, Counters: metrics.NewFleetCounters(reg), Tracer: obs.NewTracer(ring)})
	if err != nil {
		t.Fatal(err)
	}
	if evalRep.Evaluated != len(jobs) {
		t.Fatalf("evaluated %d, want %d", evalRep.Evaluated, len(jobs))
	}
	names := map[string]int{}
	for _, ev := range ring.Events() {
		names[ev.Name]++
	}
	if names["fleet.evaluate"] != 1 || names["fleet.evaluate.device"] != len(jobs) {
		t.Fatalf("span counts = %v", names)
	}
	if got := stageSeconds(reg, "evaluate"); got <= 0 {
		t.Fatalf("evaluate stage time = %gs, want > 0", got)
	}
}
