package metrics

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"ropuf/internal/obs"
)

// Metric names exported by FleetCounters into its obs.Registry. DESIGN.md
// §7 documents labels and bucket layouts; dashboards should consume these
// names rather than reverse-engineering the source.
const (
	MetricDevicesEnrolled = "ropuf_fleet_devices_enrolled_total"
	MetricDevicesFailed   = "ropuf_fleet_devices_failed_total"
	MetricPairsKept       = "ropuf_fleet_pairs_kept_total"
	MetricPairsRejected   = "ropuf_fleet_pairs_rejected_total"
	MetricEvaluations     = "ropuf_fleet_evaluations_total"
	MetricEvalErrors      = "ropuf_fleet_eval_errors_total"
	MetricBitFlips        = "ropuf_fleet_bit_flips_total"
	MetricStageSeconds    = "ropuf_fleet_stage_duration_seconds"
	MetricDeviceSeconds   = "ropuf_fleet_device_duration_seconds"
)

// FleetCounters aggregates the per-stage progress counters of a batch
// enrollment/evaluation run. All count fields are safe for concurrent
// update from worker goroutines.
//
// Stage wall-clocks live in the obs.Registry the counters were built on,
// as latency histograms: MetricStageSeconds for whole-batch stages and
// MetricDeviceSeconds for per-device latencies.
type FleetCounters struct {
	// DevicesEnrolled / DevicesFailed partition the enrollment batch.
	DevicesEnrolled atomic.Int64
	DevicesFailed   atomic.Int64

	// PairsKept counts pairs whose margin met the enrollment threshold;
	// PairsRejected counts pairs masked out (below threshold or degenerate).
	PairsKept     atomic.Int64
	PairsRejected atomic.Int64

	// Evaluations / EvalErrors partition the evaluation batch. BitFlips
	// sums response-vs-reference flips across all evaluated devices.
	Evaluations atomic.Int64
	EvalErrors  atomic.Int64
	BitFlips    atomic.Int64

	stage  *obs.HistogramVec
	device *obs.HistogramVec
}

// NewFleetCounters returns counters bound to reg: the stage and per-device
// latency histograms are registered there, and the flat counters are
// exported as read-on-scrape counter functions. A registry should back at
// most one FleetCounters — the counter functions are registered once per
// name.
func NewFleetCounters(reg *obs.Registry) *FleetCounters {
	c := &FleetCounters{
		stage: reg.NewHistogramVec(MetricStageSeconds,
			"Wall-clock time of whole batch stages.", nil, "stage"),
		device: reg.NewHistogramVec(MetricDeviceSeconds,
			"Per-device processing latency by stage.", nil, "stage"),
	}
	load := func(v *atomic.Int64) func() float64 {
		return func() float64 { return float64(v.Load()) }
	}
	reg.NewCounterFunc(MetricDevicesEnrolled, "Devices enrolled successfully.", load(&c.DevicesEnrolled))
	reg.NewCounterFunc(MetricDevicesFailed, "Devices whose enrollment failed.", load(&c.DevicesFailed))
	reg.NewCounterFunc(MetricPairsKept, "Pairs whose margin met the enrollment threshold.", load(&c.PairsKept))
	reg.NewCounterFunc(MetricPairsRejected, "Pairs masked out at enrollment.", load(&c.PairsRejected))
	reg.NewCounterFunc(MetricEvaluations, "Devices evaluated successfully.", load(&c.Evaluations))
	reg.NewCounterFunc(MetricEvalErrors, "Devices whose evaluation failed.", load(&c.EvalErrors))
	reg.NewCounterFunc(MetricBitFlips, "Response-vs-reference bit flips across evaluations.", load(&c.BitFlips))
	return c
}

// ObserveStage records one whole-stage wall-clock observation under a
// named stage (e.g. "enroll", "evaluate").
func (c *FleetCounters) ObserveStage(stage string, d time.Duration) {
	c.stage.With(stage).Observe(d.Seconds())
}

// ObserveDevice records one device's processing latency under a stage.
func (c *FleetCounters) ObserveDevice(stage string, d time.Duration) {
	c.device.With(stage).Observe(d.Seconds())
}

// Stages lists the recorded stage names in sorted order. This ordering is a
// contract: String() renders stages in exactly this order, and consumers
// parsing either output should rely on it.
func (c *FleetCounters) Stages() []string {
	out := []string{}
	for _, labels := range c.stage.LabelSets() {
		out = append(out, labels[0])
	}
	return out
}

// String renders a one-look summary of the run. The format is pinned by a
// golden test: the device/pair section always appears, the eval section
// only once evaluations ran, and stages follow in Stages() order, each
// with its accumulated wall-clock (the stage histogram's sum).
func (c *FleetCounters) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "devices: %d enrolled, %d failed; pairs: %d kept, %d rejected",
		c.DevicesEnrolled.Load(), c.DevicesFailed.Load(),
		c.PairsKept.Load(), c.PairsRejected.Load())
	if n := c.Evaluations.Load() + c.EvalErrors.Load(); n > 0 {
		fmt.Fprintf(&b, "; evals: %d ok, %d failed, %d bit flips",
			c.Evaluations.Load(), c.EvalErrors.Load(), c.BitFlips.Load())
	}
	for _, s := range c.Stages() {
		d := time.Duration(math.Round(c.stage.With(s).Sum() * 1e9))
		fmt.Fprintf(&b, "; %s %s", s, d.Round(time.Microsecond))
	}
	return b.String()
}
