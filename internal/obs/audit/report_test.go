package audit

import (
	"math"
	"strings"
	"testing"
	"time"

	"ropuf/internal/obs"
)

func ts(sec int) time.Time {
	return time.Date(2026, 8, 8, 12, 0, sec, 0, time.UTC)
}

func sampleEvents() []Event {
	return []Event{
		{TS: ts(0), Event: EventEnroll, DeviceID: "dev-0000", TraceID: "t0"},
		{TS: ts(0), Event: EventEnroll, DeviceID: "dev-0001", TraceID: "t1"},
		// dev-0000 drains 40 pairs over 10s (4 pairs/s), 80 left at the end.
		{TS: ts(1), Event: EventChallenge, DeviceID: "dev-0000", TraceID: "t2",
			Detail: map[string]float64{"k": 20, "fresh_after": 100}},
		{TS: ts(10), Event: EventChallenge, DeviceID: "dev-0000", TraceID: "t3",
			Detail: map[string]float64{"k": 20, "fresh_after": 80}},
		{TS: ts(5), Event: EventVerifyFail, DeviceID: "dev-0000", TraceID: "tX",
			Reason: "mismatch", Detail: map[string]float64{"distance": 9, "limit": 3}},
		// dev-0001 consumes a little, never flagged.
		{TS: ts(2), Event: EventChallenge, DeviceID: "dev-0001", TraceID: "t4",
			Detail: map[string]float64{"k": 4, "fresh_after": 116}},
		// dev-0000 gets flagged, then cleared.
		{TS: ts(6), Event: EventFlag, DeviceID: "dev-0000", Reason: "harvest",
			TraceID: "t2", Detail: map[string]float64{"challenge_rate": 4, "fleet_median_rate": 0.2}},
		{TS: ts(9), Event: EventUnflag, DeviceID: "dev-0000", Reason: "harvest"},
	}
}

func sampleSpans() []obs.SpanEvent {
	// t0..t4 exist as spans; tX does not (a dropped/foreign trace).
	var spans []obs.SpanEvent
	for _, id := range []string{"t0", "t1", "t2", "t3", "t4"} {
		spans = append(spans, obs.SpanEvent{TraceID: id, ID: "s" + id, Name: "authserve.verify"})
	}
	return spans
}

func TestAnalyzeDevices(t *testing.T) {
	rep := Analyze(sampleEvents(), sampleSpans(), Options{})
	if rep.Events != 8 || rep.Devices != 2 {
		t.Fatalf("Events=%d Devices=%d, want 8, 2", rep.Events, rep.Devices)
	}
	if rep.ByEvent[EventChallenge] != 3 || rep.ByEvent[EventFlag] != 1 {
		t.Fatalf("ByEvent = %v", rep.ByEvent)
	}

	if len(rep.Consumers) != 2 || rep.Consumers[0].ID != "dev-0000" {
		t.Fatalf("top consumer = %+v, want dev-0000 first", rep.Consumers)
	}
	top := rep.Consumers[0]
	if top.PairsConsumed != 40 || top.FreshLast != 80 || top.VerifyFails != 1 {
		t.Fatalf("dev-0000 = %+v", top)
	}
	// 40 pairs over the 10s activity span (ts 0..10) = 4 pairs/s; 80 fresh
	// at that rate is a 20s time-to-empty.
	if math.Abs(top.DrainPerSec-4) > 1e-9 {
		t.Fatalf("DrainPerSec = %g, want 4", top.DrainPerSec)
	}
	if math.Abs(top.TTESeconds-20) > 1e-9 {
		t.Fatalf("TTESeconds = %g, want 20", top.TTESeconds)
	}
	// dev-0001 never drained enough to project: activity span is 0..2 with
	// 4 pairs, so it has a rate, and fresh 116 gives a finite forecast.
	other := rep.Consumers[1]
	if other.ID != "dev-0001" || other.DrainPerSec != 2 || other.TTESeconds != 58 {
		t.Fatalf("dev-0001 = %+v", other)
	}
}

func TestAnalyzeFlagEpisodes(t *testing.T) {
	rep := Analyze(sampleEvents(), nil, Options{})
	if len(rep.Flagged) != 1 || rep.Flagged[0].ID != "dev-0000" {
		t.Fatalf("Flagged = %+v", rep.Flagged)
	}
	eps := rep.Flagged[0].Flags
	if len(eps) != 1 {
		t.Fatalf("episodes = %+v", eps)
	}
	ep := eps[0]
	if ep.Reason != "harvest" || ep.Active() || !ep.Cleared.Equal(ts(9)) {
		t.Fatalf("episode = %+v", ep)
	}
	if ep.Evidence["challenge_rate"] != 4 || ep.TraceID != "t2" {
		t.Fatalf("episode evidence = %+v", ep)
	}
	if rep.Flagged[0].Flagged() {
		t.Fatal("cleared device still reports Flagged()")
	}

	// Drop the unflag: the episode must stay open.
	events := sampleEvents()
	open := Analyze(events[:len(events)-1], nil, Options{})
	if !open.Flagged[0].Flagged() || !open.Flagged[0].Flags[0].Active() {
		t.Fatal("open episode not reported active")
	}
}

func TestAnalyzeTraceCorrelation(t *testing.T) {
	rep := Analyze(sampleEvents(), sampleSpans(), Options{})
	// 7 events carry trace IDs (all but the unflag); 6 of those resolve
	// (tX does not).
	if rep.WithTrace != 7 || rep.TraceMatched != 6 {
		t.Fatalf("WithTrace=%d TraceMatched=%d, want 7, 6", rep.WithTrace, rep.TraceMatched)
	}
	if f := rep.TraceMatchedFraction(); math.Abs(f-6.0/7.0) > 1e-9 {
		t.Fatalf("TraceMatchedFraction = %g", f)
	}
	if rep.SpanTraces != 5 {
		t.Fatalf("SpanTraces = %d, want 5", rep.SpanTraces)
	}
}

func TestAnalyzeTopTruncation(t *testing.T) {
	rep := Analyze(sampleEvents(), nil, Options{Top: 1})
	if len(rep.Consumers) != 1 || rep.Consumers[0].ID != "dev-0000" {
		t.Fatalf("Top=1 consumers = %+v", rep.Consumers)
	}
	// Flagged list is never truncated.
	if len(rep.Flagged) != 1 {
		t.Fatalf("Flagged truncated: %+v", rep.Flagged)
	}
}

func TestWriteText(t *testing.T) {
	rep := Analyze(sampleEvents(), sampleSpans(), Options{})
	var sb strings.Builder
	if err := rep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"8 audit events, 2 devices",
		"trace correlation: 6/7",
		"dev-0000",
		"harvest",
		"evidence challenge_rate",
		"trace t2",
		"20s", // dev-0000 exhaustion forecast
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
