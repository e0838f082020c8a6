package audit

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestWriterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.jsonl")
	w, f, _, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	want := []Event{
		{Event: EventEnroll, DeviceID: "dev-0001", TraceID: "0123456789abcdef0123456789abcdef"},
		{Event: EventVerifyFail, DeviceID: "dev-0001", Reason: "mismatch",
			Detail: map[string]float64{"distance": 12, "limit": 6}},
		{Event: EventFlag, DeviceID: "dev-0002", Reason: "harvest",
			Detail: map[string]float64{"challenge_rate": 40, "fleet_median_rate": 1}},
	}
	for _, ev := range want {
		w.Emit(ev)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := w.Emitted(), int64(3); got != want {
		t.Fatalf("Emitted = %d, want %d", got, want)
	}
	if got := w.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}

	events, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(want) {
		t.Fatalf("read %d events, want %d", len(events), len(want))
	}
	for i, ev := range events {
		if ev.TS.IsZero() {
			t.Errorf("event %d: zero TS not stamped", i)
		}
		if ev.Event != want[i].Event || ev.DeviceID != want[i].DeviceID ||
			ev.TraceID != want[i].TraceID || ev.Reason != want[i].Reason {
			t.Errorf("event %d = %+v, want fields of %+v", i, ev, want[i])
		}
		for k, v := range want[i].Detail {
			if ev.Detail[k] != v {
				t.Errorf("event %d: detail[%s] = %g, want %g", i, k, ev.Detail[k], v)
			}
		}
	}
}

func TestWriterAppendsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.jsonl")
	for run := 0; run < 2; run++ {
		w, f, _, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		w.Emit(Event{Event: EventEnroll, DeviceID: "dev-0000"})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	events, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("after two runs got %d events, want 2 (restart must append, not truncate)", len(events))
	}
}

// TestOpenFileCutsTornLine reopens a stream whose last write a full disk
// cut short: OpenFile truncates the file after its last newline, so the
// next run's events follow whole lines and the file reads back. A file
// that ends in a newline stays byte-identical, and one without any is
// emptied.
func TestOpenFileCutsTornLine(t *testing.T) {
	for _, tc := range []struct {
		name     string
		events   int
		fragment string
	}{
		{"whole lines", 3, ""},
		{"short fragment", 3, `{"ts":"2026-10-18T06:00:00Z","event":"enr`},
		{"fragment longer than a read", 3, `{"ts":"` + strings.Repeat("x", 5000)},
		{"fragment only", 0, `{"event":"flag","de`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "audit.jsonl")
			w, f, _, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.events; i++ {
				w.Emit(Event{Event: EventEnroll, DeviceID: fmt.Sprintf("dev-%04d", i)})
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(tc.fragment); err != nil {
				t.Fatal(err)
			}
			f.Close()
			whole, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			whole = whole[:len(whole)-len(tc.fragment)]

			w, f, cut, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if cut != int64(len(tc.fragment)) {
				t.Errorf("cut %d bytes, want the %d-byte fragment", cut, len(tc.fragment))
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, whole) {
				t.Errorf("reopened file holds %q (err %v), want its whole lines %q", got, err, whole)
			}
			w.Emit(Event{Event: EventFlag, DeviceID: "dev-after"})
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			f.Close()
			events, err := ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(events) != tc.events+1 || events[tc.events].DeviceID != "dev-after" {
				t.Fatalf("read %d events, want %d ending with dev-after", len(events), tc.events+1)
			}
		})
	}
}

// A wedged sink must not wedge Emit: events past the buffer are dropped
// and counted while every Emit returns immediately.
func TestWriterDropsWhenFull(t *testing.T) {
	block := make(chan struct{})
	w := NewWriter(blockingWriter{block})

	// First write is pulled from the channel by the drain goroutine and
	// blocks inside Write; wait until the buffer alone absorbs the rest.
	total := 2 * bufferEvents
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			w.Emit(Event{Event: EventChallenge, DeviceID: "dev-0000"})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Emit blocked on a wedged sink")
	}
	if w.Dropped() == 0 {
		t.Fatalf("Dropped = 0 after %d emits into a wedged %d-slot writer", total, bufferEvents)
	}
	if w.Emitted()+w.Dropped() != int64(total) {
		t.Fatalf("Emitted %d + Dropped %d != %d", w.Emitted(), w.Dropped(), total)
	}
	close(block)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

var errDiskFull = errors.New("no space left on device")

// failingWriter takes writes until it holds limit bytes and fails the
// write that would cross it. A short one stores the part of that write
// which fits, as a full disk does; otherwise the write stores nothing. One
// that recovers takes every later write, as a disk does once space is
// freed.
type failingWriter struct {
	out      bytes.Buffer
	limit    int
	short    bool
	recovers bool
	failed   bool
}

func (w *failingWriter) Write(p []byte) (int, error) {
	left := w.limit - w.out.Len()
	if len(p) <= left || w.failed && w.recovers {
		return w.out.Write(p)
	}
	w.failed = true
	if !w.short {
		return 0, errDiskFull
	}
	w.out.Write(p[:left])
	return left, errDiskFull
}

// A sink that refuses every write loses every event: Dropped counts them
// and Close reports why.
func TestWriterReportsFailedWrites(t *testing.T) {
	w := NewWriter(&failingWriter{})
	for i := 0; i < 5; i++ {
		w.Emit(Event{Event: EventChallenge, DeviceID: "dev-0000"})
	}
	if err := w.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Close = %v, want %v", err, errDiskFull)
	}
	if w.Emitted() != 5 || w.Dropped() != 5 {
		t.Fatalf("Emitted %d, Dropped %d; want 5 and 5", w.Emitted(), w.Dropped())
	}
}

// A sink that fills up part way holds exactly the events Dropped does not
// count, each as a whole line. Nothing is written after the failure, even
// to a sink that would take it again: a short write leaves a torn line,
// and the next line would be appended to it.
func TestWriterCountsEventsLostToFullSink(t *testing.T) {
	for _, sink := range []*failingWriter{
		{limit: 5000},
		{limit: 5000, short: true},
		{limit: 5000, recovers: true},
		{limit: 5000, short: true, recovers: true},
	} {
		name := fmt.Sprintf("short=%v recovers=%v", sink.short, sink.recovers)
		const total = 300
		w := NewWriter(sink)
		for i := 0; i < total; i++ {
			w.Emit(Event{Event: EventVerifyFail, DeviceID: "dev-0000", Reason: "mismatch",
				Detail: map[string]float64{"distance": float64(i), "limit": 6}})
		}
		if err := w.Close(); !errors.Is(err, errDiskFull) {
			t.Fatalf("%s: Close = %v, want %v", name, err, errDiskFull)
		}
		if w.Emitted() != total || w.Dropped() == 0 {
			t.Fatalf("%s: Emitted %d, Dropped %d; want %d and some", name, w.Emitted(), w.Dropped(), total)
		}
		out := sink.out.Bytes()
		whole := out[:bytes.LastIndexByte(out, '\n')+1]
		if !sink.short && len(whole) != len(out) {
			t.Fatalf("%s: a sink that refuses whole writes holds a torn line: %q", name, out[len(whole):])
		}
		events, err := Read(bytes.NewReader(whole), "sink")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if int64(len(events)) != w.Emitted()-w.Dropped() {
			t.Fatalf("%s: sink holds %d events, Emitted %d − Dropped %d = %d",
				name, len(events), w.Emitted(), w.Dropped(), w.Emitted()-w.Dropped())
		}
		for i, ev := range events {
			if ev.Detail["distance"] != float64(i) {
				t.Fatalf("%s: event %d carries distance %g", name, i, ev.Detail["distance"])
			}
		}
	}
}

// An event JSON cannot encode is dropped alone: the events around it are
// written, and Close reports the encode error.
func TestWriterDropsUnencodableEvent(t *testing.T) {
	var sink bytes.Buffer
	w := NewWriter(&sink)
	w.Emit(Event{Event: EventFlag, DeviceID: "dev-0000"})
	w.Emit(Event{Event: EventFlag, DeviceID: "dev-0001", Detail: map[string]float64{"challenge_rate": math.NaN()}})
	w.Emit(Event{Event: EventFlag, DeviceID: "dev-0002"})
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "unsupported value") {
		t.Fatalf("Close = %v, want the encode error", err)
	}
	events, err := Read(&sink, "sink")
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].DeviceID != "dev-0000" || events[1].DeviceID != "dev-0002" || w.Dropped() != 1 {
		t.Fatalf("sink holds %+v with Dropped %d; want dev-0000 and dev-0002, 1 dropped", events, w.Dropped())
	}
}

type blockingWriter struct{ unblock chan struct{} }

func (b blockingWriter) Write(p []byte) (int, error) {
	<-b.unblock
	return len(p), nil
}

func TestWriterConcurrentEmit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.jsonl")
	w, f, _, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wg sync.WaitGroup
	const goroutines, per = 8, 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				w.Emit(Event{Event: EventChallenge, DeviceID: "dev-0000"})
			}
		}()
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(events)) != w.Emitted() {
		t.Fatalf("file has %d events, writer accepted %d", len(events), w.Emitted())
	}
	if w.Emitted()+w.Dropped() != goroutines*per {
		t.Fatalf("Emitted %d + Dropped %d != %d", w.Emitted(), w.Dropped(), goroutines*per)
	}
}

func TestNilWriterNoOps(t *testing.T) {
	var w *Writer
	w.Emit(Event{Event: EventEnroll, DeviceID: "dev-0000"})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Emitted() != 0 || w.Dropped() != 0 {
		t.Fatal("nil writer reported activity")
	}
}

func TestReadRejectsMalformedLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(path, []byte("{\"event\":\"enroll\"}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFile(path)
	if err == nil || !strings.Contains(err.Error(), ":2:") {
		t.Fatalf("want line-2 decode error, got %v", err)
	}
}

func TestReadFiles(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i := 0; i < 2; i++ {
		p := filepath.Join(dir, "a.jsonl")
		if i == 1 {
			p = filepath.Join(dir, "b.jsonl")
		}
		w, f, _, err := OpenFile(p)
		if err != nil {
			t.Fatal(err)
		}
		w.Emit(Event{Event: EventEnroll, DeviceID: "dev-0000"})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		paths = append(paths, p)
	}
	events, err := ReadFiles(paths)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
}
