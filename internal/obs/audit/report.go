package audit

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"ropuf/internal/obs"
)

// Options tunes Analyze.
type Options struct {
	// Top bounds the consumer table; <= 0 means all devices.
	Top int
}

// FlagEpisode is one raise/clear cycle of an abuse flag, with the numeric
// evidence the scorer attached when it fired.
type FlagEpisode struct {
	Reason   string
	Raised   time.Time
	Cleared  time.Time // zero while still flagged
	Evidence map[string]float64
	TraceID  string // request that tipped the scorer, when one was in flight
}

// Active reports whether the episode is still open.
func (e *FlagEpisode) Active() bool { return e.Cleared.IsZero() }

// DeviceReport aggregates one device's audit history.
type DeviceReport struct {
	ID          string
	Enrolls     int
	Challenges  int
	VerifyFails int
	// PairsConsumed sums the k of every challenge event — the device's
	// total CRP-space spend over the observed window.
	PairsConsumed float64
	// FreshLast is the pairs-remaining count after the device's most
	// recent challenge (-1 when no challenge event carried it).
	FreshLast float64
	// First/Last bound the device's activity in the stream.
	First, Last time.Time
	// DrainPerSec is PairsConsumed over the activity interval; TTESeconds
	// projects FreshLast at that rate (+Inf when not draining or unknown).
	DrainPerSec float64
	TTESeconds  float64
	Flags       []FlagEpisode
}

// Flagged reports whether the device has an open flag episode.
func (d *DeviceReport) Flagged() bool {
	for i := range d.Flags {
		if d.Flags[i].Active() {
			return true
		}
	}
	return false
}

// Report is the merged audit + trace analysis.
type Report struct {
	Files   int
	Events  int
	Devices int
	ByEvent map[string]int

	// WithTrace counts audit events carrying a trace ID; TraceMatched is
	// the subset whose ID also appears in the provided span set — the
	// audit↔trace stitch rate. SpanTraces is the span set's trace count.
	WithTrace    int
	TraceMatched int
	SpanTraces   int

	// Consumers is every device sorted by PairsConsumed descending,
	// truncated to Options.Top. Flagged lists devices with at least one
	// flag episode (open or closed), sorted by ID; it is never truncated.
	Consumers []DeviceReport
	Flagged   []DeviceReport
}

// TraceMatchedFraction is TraceMatched/WithTrace (0 with no traced events).
func (r *Report) TraceMatchedFraction() float64 {
	if r.WithTrace == 0 {
		return 0
	}
	return float64(r.TraceMatched) / float64(r.WithTrace)
}

// Analyze folds audit events and (optionally) span events from -trace-out
// files into per-device reports. Spans contribute only their trace-ID set:
// an audit event whose trace ID resolves to a span is "matched", proving
// the stream stitches to the request traces around it.
func Analyze(events []Event, spans []obs.SpanEvent, opt Options) *Report {
	rep := &Report{Events: len(events), ByEvent: map[string]int{}}

	spanTraces := map[string]bool{}
	for _, sp := range spans {
		if sp.TraceID != "" {
			spanTraces[sp.TraceID] = true
		}
	}
	rep.SpanTraces = len(spanTraces)

	devices := map[string]*DeviceReport{}
	dev := func(id string) *DeviceReport {
		d := devices[id]
		if d == nil {
			d = &DeviceReport{ID: id, FreshLast: -1}
			devices[id] = d
		}
		return d
	}
	for _, ev := range events {
		rep.ByEvent[ev.Event]++
		if ev.TraceID != "" {
			rep.WithTrace++
			if spanTraces[ev.TraceID] {
				rep.TraceMatched++
			}
		}
		if ev.DeviceID == "" {
			continue
		}
		d := dev(ev.DeviceID)
		if d.First.IsZero() || ev.TS.Before(d.First) {
			d.First = ev.TS
		}
		if ev.TS.After(d.Last) {
			d.Last = ev.TS
		}
		switch ev.Event {
		case EventEnroll:
			d.Enrolls++
		case EventChallenge:
			d.Challenges++
			d.PairsConsumed += ev.Detail["k"]
			if fresh, ok := ev.Detail["fresh_after"]; ok {
				d.FreshLast = fresh
			}
		case EventVerifyFail:
			d.VerifyFails++
		case EventFlag:
			d.Flags = append(d.Flags, FlagEpisode{
				Reason:   ev.Reason,
				Raised:   ev.TS,
				Evidence: ev.Detail,
				TraceID:  ev.TraceID,
			})
		case EventUnflag:
			// Close the most recent open episode with this reason.
			for i := len(d.Flags) - 1; i >= 0; i-- {
				if d.Flags[i].Reason == ev.Reason && d.Flags[i].Active() {
					d.Flags[i].Cleared = ev.TS
					break
				}
			}
		}
	}
	rep.Devices = len(devices)

	for _, d := range devices {
		d.TTESeconds = math.Inf(1)
		if span := d.Last.Sub(d.First); span > 0 && d.PairsConsumed > 0 {
			d.DrainPerSec = d.PairsConsumed / span.Seconds()
			if d.FreshLast >= 0 {
				d.TTESeconds = d.FreshLast / d.DrainPerSec
			}
		}
		rep.Consumers = append(rep.Consumers, *d)
		if len(d.Flags) > 0 {
			rep.Flagged = append(rep.Flagged, *d)
		}
	}
	sort.Slice(rep.Consumers, func(i, j int) bool {
		if rep.Consumers[i].PairsConsumed != rep.Consumers[j].PairsConsumed {
			return rep.Consumers[i].PairsConsumed > rep.Consumers[j].PairsConsumed
		}
		return rep.Consumers[i].ID < rep.Consumers[j].ID
	})
	sort.Slice(rep.Flagged, func(i, j int) bool { return rep.Flagged[i].ID < rep.Flagged[j].ID })
	if opt.Top > 0 && len(rep.Consumers) > opt.Top {
		rep.Consumers = rep.Consumers[:opt.Top]
	}
	return rep
}

// WriteText renders the human-readable report: stream summary, trace
// correlation, top consumers, flagged devices with their evidence
// windows, and the exhaustion forecast.
func (r *Report) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "read %d files: %d audit events, %d devices\n",
		r.Files, r.Events, r.Devices); err != nil {
		return err
	}
	var kinds []string
	for k := range r.ByEvent {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s %d", k, r.ByEvent[k]))
	}
	fmt.Fprintf(w, "events by type: %s\n", strings.Join(parts, ", "))
	fmt.Fprintf(w, "trace correlation: %d/%d traced events matched to spans (%.1f%%), %d span traces\n",
		r.TraceMatched, r.WithTrace, 100*r.TraceMatchedFraction(), r.SpanTraces)

	fmt.Fprintf(w, "\ntop consumers (by pairs consumed):\n")
	fmt.Fprintf(w, "  %-12s %8s %8s %8s %10s %10s %9s\n",
		"device", "chals", "fails", "pairs", "fresh", "drain/s", "tte")
	for i := range r.Consumers {
		d := &r.Consumers[i]
		fmt.Fprintf(w, "  %-12s %8d %8d %8.0f %10s %10.2f %9s\n",
			d.ID, d.Challenges, d.VerifyFails, d.PairsConsumed,
			freshStr(d.FreshLast), d.DrainPerSec, tteStr(d.TTESeconds))
	}

	if len(r.Flagged) == 0 {
		fmt.Fprintf(w, "\nflagged devices: none\n")
		return nil
	}
	fmt.Fprintf(w, "\nflagged devices:\n")
	for i := range r.Flagged {
		d := &r.Flagged[i]
		for _, ep := range d.Flags {
			state := "cleared " + ep.Cleared.Format(time.RFC3339)
			if ep.Active() {
				state = "ACTIVE"
			}
			fmt.Fprintf(w, "  %-12s %-10s raised %s  %s\n",
				d.ID, ep.Reason, ep.Raised.Format(time.RFC3339), state)
			var keys []string
			for k := range ep.Evidence {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(w, "    evidence %-22s %g\n", k, ep.Evidence[k])
			}
			if ep.TraceID != "" {
				fmt.Fprintf(w, "    trace %s\n", ep.TraceID)
			}
		}
	}
	return nil
}

func freshStr(fresh float64) string {
	if fresh < 0 {
		return "?"
	}
	return fmt.Sprintf("%.0f", fresh)
}

func tteStr(tte float64) string {
	if math.IsInf(tte, 1) {
		return "-"
	}
	return (time.Duration(tte * float64(time.Second))).Round(time.Second).String()
}
