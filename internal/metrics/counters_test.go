package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"ropuf/internal/obs"
)

// stageTime reads a stage's accumulated wall-clock back from the
// registry's MetricStageSeconds histogram.
func stageTime(reg *obs.Registry, stage string) time.Duration {
	for _, f := range reg.Snapshot() {
		if f.Name != MetricStageSeconds {
			continue
		}
		for _, s := range f.Series {
			if s.Labels["stage"] == stage {
				return time.Duration(math.Round(s.Sum * 1e9))
			}
		}
	}
	return 0
}

func TestFleetCountersConcurrentUpdates(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewFleetCounters(reg)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.DevicesEnrolled.Add(1)
				c.PairsKept.Add(3)
				c.PairsRejected.Add(1)
				c.ObserveStage("enroll", time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := c.DevicesEnrolled.Load(); got != 800 {
		t.Fatalf("DevicesEnrolled = %d, want 800", got)
	}
	if got := c.PairsKept.Load(); got != 2400 {
		t.Fatalf("PairsKept = %d, want 2400", got)
	}
	if got := stageTime(reg, "enroll"); got != 800*time.Millisecond {
		t.Fatalf("enroll stage time = %v, want 800ms", got)
	}
}

func TestFleetCountersStagesSorted(t *testing.T) {
	c := NewFleetCounters(obs.NewRegistry())
	c.ObserveStage("evaluate", time.Second)
	c.ObserveStage("enroll", time.Second)
	got := c.Stages()
	if len(got) != 2 || got[0] != "enroll" || got[1] != "evaluate" {
		t.Fatalf("Stages() = %v, want [enroll evaluate]", got)
	}
}

// TestFleetCountersStringGolden pins the String() format exactly: the
// device/pair section, the eval section once evaluations ran, and stages
// appended in Stages() (sorted) order. Consumers parsing this output — or
// the Stages() slice — rely on that ordering contract.
func TestFleetCountersStringGolden(t *testing.T) {
	c := NewFleetCounters(obs.NewRegistry())
	c.DevicesEnrolled.Add(12)
	c.DevicesFailed.Add(3)
	c.PairsKept.Add(300)
	c.PairsRejected.Add(84)
	want := "devices: 12 enrolled, 3 failed; pairs: 300 kept, 84 rejected"
	if got := c.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}

	c.Evaluations.Add(11)
	c.EvalErrors.Add(1)
	c.BitFlips.Add(42)
	// Stages recorded out of order render sorted: enroll before evaluate.
	c.ObserveStage("evaluate", 1500*time.Microsecond)
	c.ObserveStage("enroll", 2*time.Millisecond)
	c.ObserveStage("enroll", 1*time.Millisecond)
	want = "devices: 12 enrolled, 3 failed; pairs: 300 kept, 84 rejected" +
		"; evals: 11 ok, 1 failed, 42 bit flips" +
		"; enroll 3ms; evaluate 1.5ms"
	if got := c.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestFleetCountersRegistryBacked checks the counters' registry: stage
// clocks live there as histograms, and the flat counters are scrapable
// from it.
func TestFleetCountersRegistryBacked(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewFleetCounters(reg)
	c.DevicesEnrolled.Add(7)
	c.ObserveStage("enroll", 10*time.Millisecond)
	c.ObserveDevice("enroll", 2*time.Millisecond)
	c.ObserveDevice("enroll", 3*time.Millisecond)

	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ropuf_fleet_devices_enrolled_total 7",
		`ropuf_fleet_stage_duration_seconds_count{stage="enroll"} 1`,
		`ropuf_fleet_device_duration_seconds_count{stage="enroll"} 2`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, b.String())
		}
	}
	if got := stageTime(reg, "enroll"); got != 10*time.Millisecond {
		t.Fatalf("enroll stage time = %v, want 10ms", got)
	}
}

func TestFleetCountersString(t *testing.T) {
	c := NewFleetCounters(obs.NewRegistry())
	c.DevicesEnrolled.Add(5)
	c.DevicesFailed.Add(1)
	c.PairsKept.Add(100)
	c.PairsRejected.Add(20)
	s := c.String()
	for _, want := range []string{"5 enrolled", "1 failed", "100 kept", "20 rejected"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if strings.Contains(s, "evals") {
		t.Errorf("String() = %q mentions evals with none recorded", s)
	}
	c.Evaluations.Add(7)
	c.BitFlips.Add(2)
	if s := c.String(); !strings.Contains(s, "7 ok") || !strings.Contains(s, "2 bit flips") {
		t.Errorf("String() = %q missing eval summary", s)
	}
}
