package tracestat

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ropuf/internal/obs"
)

// span builds a test event. IDs are short strings for readability — Analyze
// only compares them, it never validates hex shape.
func span(trace, id, parent, service, name string, start, dur time.Duration) obs.SpanEvent {
	return obs.SpanEvent{
		TraceID: trace, ID: id, ParentID: parent, Service: service, Name: name,
		Start: time.Unix(0, 0).Add(start), DurationNS: int64(dur),
	}
}

// TestPercentileMatchesLoadgen pins the one percentile convention both
// `ropuf loadgen` and tracestat report with — nearest rank, index
// floor(p*n) clamped to n-1 — as expected values on fixed inputs.
func TestPercentileMatchesLoadgen(t *testing.T) {
	durs := make([]time.Duration, 100) // 1ms … 100ms
	for i := range durs {
		durs[i] = time.Duration(i+1) * time.Millisecond
	}
	three := []time.Duration{10, 20, 30}
	cases := []struct {
		in   []time.Duration
		p    float64
		want time.Duration
	}{
		{durs, 0, time.Millisecond},
		{durs, 0.5, 51 * time.Millisecond},
		{durs, 0.9, 91 * time.Millisecond},
		{durs, 0.99, 100 * time.Millisecond},
		{durs, 1, 100 * time.Millisecond},
		{three, 0.5, 20},
		{three, 0.99, 30},
		{three[:1], 0.5, 10},
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := Percentile(c.in, c.p); got != c.want {
			t.Errorf("Percentile(%d values, %g) = %v, want %v", len(c.in), c.p, got, c.want)
		}
	}
}

func TestAnalyzeSingleProcessTrace(t *testing.T) {
	events := []obs.SpanEvent{
		span("t1", "a", "", "svc", "root", 0, 100*time.Millisecond),
		span("t1", "b", "a", "svc", "child", 10*time.Millisecond, 60*time.Millisecond),
		span("t1", "c", "a", "svc", "child", 20*time.Millisecond, 20*time.Millisecond),
	}
	rep := Analyze(events, Options{})
	if rep.Spans != 3 || rep.Traces != 1 || rep.StitchedTraces != 0 || rep.OrphanSpans != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Names) != 2 || rep.Names[0].Name != "root" {
		t.Fatalf("names (sorted by total) = %+v", rep.Names)
	}
	if r := rep.Names[0]; r.P50 != 100*time.Millisecond || r.P99 != 100*time.Millisecond {
		t.Fatalf("root stats = %+v", r)
	}
	if cs := rep.Names[1]; cs.Count != 2 || cs.Max != 60*time.Millisecond {
		t.Fatalf("child stats = %+v", cs)
	}
	// Critical path: root self = 100 - 60 (gating child b), b self = 60.
	if rep.CriticalTotal != 100*time.Millisecond {
		t.Fatalf("critical total = %v", rep.CriticalTotal)
	}
	self := map[string]time.Duration{}
	for _, ps := range rep.CriticalPath {
		self[ps.Name] = ps.Self
	}
	if self["root"] != 40*time.Millisecond || self["child"] != 60*time.Millisecond {
		t.Fatalf("critical path self = %v", self)
	}
}

func TestAnalyzeStitchesAcrossServices(t *testing.T) {
	// A loadgen client span parenting an authserve server span: the shape
	// `ropuf tracestat client.jsonl server.jsonl` must recognize as stitched.
	events := []obs.SpanEvent{
		span("t1", "c1", "", "loadgen", "loadgen.verify", 0, 10*time.Millisecond),
		span("t1", "s1", "c1", "authserve", "authserve.verify", time.Millisecond, 8*time.Millisecond),
		span("t1", "s2", "s1", "authserve", "store.verify", 2*time.Millisecond, 3*time.Millisecond),
		// A second, unstitched trace.
		span("t2", "c2", "", "loadgen", "loadgen.enroll", 0, 5*time.Millisecond),
	}
	rep := Analyze(events, Options{})
	if rep.Traces != 2 || rep.StitchedTraces != 1 {
		t.Fatalf("stitching: %+v", rep)
	}
	if rep.CrossProcessLinks != 1 {
		t.Fatalf("cross-process links = %d, want 1 (c1->s1)", rep.CrossProcessLinks)
	}
	if got := rep.StitchedFraction(); got != 0.5 {
		t.Fatalf("stitched fraction = %g, want 0.5", got)
	}
}

func TestAnalyzeOrphansAndMultiRoot(t *testing.T) {
	events := []obs.SpanEvent{
		// Trace with a span whose parent is referenced but absent.
		span("t1", "a", "gone", "svc", "orphaned", 0, time.Millisecond),
		// Trace with two true roots.
		span("t2", "r1", "", "svc", "rootA", 0, time.Millisecond),
		span("t2", "r2", "", "svc", "rootB", 0, time.Millisecond),
	}
	rep := Analyze(events, Options{})
	if rep.OrphanSpans != 1 || rep.MissingParents != 1 {
		t.Fatalf("orphans: %+v", rep)
	}
	if rep.MultiRootTraces != 1 {
		t.Fatalf("multi-root traces = %d", rep.MultiRootTraces)
	}
}

func TestAnalyzeTopTruncation(t *testing.T) {
	var events []obs.SpanEvent
	for i := 0; i < 5; i++ {
		events = append(events, span("t", string(rune('a'+i)), "", "svc",
			"op"+string(rune('a'+i)), 0, time.Duration(i+1)*time.Millisecond))
	}
	rep := Analyze(events, Options{Top: 2})
	if len(rep.Names) != 2 {
		t.Fatalf("%d names after Top=2", len(rep.Names))
	}
	if rep.Names[0].Name != "ope" { // largest total first
		t.Fatalf("names = %+v", rep.Names)
	}
}

func TestReadFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "client.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewJSONLSink(f)
	for _, ev := range []obs.SpanEvent{
		span("t1", "a", "", "loadgen", "loadgen.verify", 0, time.Millisecond),
		span("t1", "b", "a", "", "unstamped", 0, time.Millisecond),
	} {
		sink.Emit(ev)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("%d events", len(events))
	}
	if events[0].Service != "loadgen" {
		t.Fatalf("stamped service = %q", events[0].Service)
	}
	// Service-less spans adopt the file's base name.
	if events[1].Service != "client" {
		t.Fatalf("fallback service = %q, want client", events[1].Service)
	}

	// Malformed lines carry file:line position.
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"name\":\"ok\"}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil || !strings.Contains(err.Error(), "bad.jsonl:2") {
		t.Fatalf("malformed-line error = %v", err)
	}
}

// TestReadFilesConcatenates reads a client and a server file in argument
// order, each span keeping its own file's fallback service, and fails
// whole on a missing file.
func TestReadFilesConcatenates(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for _, name := range []string{"client", "server"} {
		path := filepath.Join(dir, name+".jsonl")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		sink := obs.NewJSONLSink(f)
		sink.Emit(span("t1", name+"-a", "", "", name+".root", 0, time.Millisecond))
		sink.Emit(span("t1", name+"-b", name+"-a", "", name+".child", 0, time.Millisecond))
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	events, err := ReadFiles(paths)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range events {
		got = append(got, ev.Service+"/"+ev.ID)
	}
	if want := "client/client-a client/client-b server/server-a server/server-b"; strings.Join(got, " ") != want {
		t.Fatalf("events %v, want %s", got, want)
	}
	if _, err := ReadFiles(append(paths, filepath.Join(dir, "missing.jsonl"))); err == nil {
		t.Fatal("ReadFiles accepted a missing file")
	}
}

func TestWriteTextSummarizes(t *testing.T) {
	events := []obs.SpanEvent{
		span("t1", "c1", "", "loadgen", "loadgen.verify", 0, 10*time.Millisecond),
		span("t1", "s1", "c1", "authserve", "authserve.verify", time.Millisecond, 8*time.Millisecond),
	}
	rep := Analyze(events, Options{})
	rep.Files = 2
	var sb strings.Builder
	if err := rep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"read 2 files: 2 spans, 1 traces",
		"stitched traces: 1/1 (100.0%)",
		"loadgen.verify",
		"critical-path breakdown",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestJSONWireFormat pins the SpanEvent JSONL schema the files carry —
// tracestat consumes files written by older binaries, so the key names are
// a contract (DESIGN.md §9).
func TestJSONWireFormat(t *testing.T) {
	ev := span("74", "69", "70", "svc", "op", time.Second, time.Millisecond)
	data, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"trace_id", "span_id", "parent_span_id", "service", "name", "start", "duration_ns"} {
		if _, ok := m[key]; !ok {
			t.Errorf("wire format missing %q: %s", key, data)
		}
	}
}
