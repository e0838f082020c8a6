package logx

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"ropuf/internal/obs"
)

// record decodes one emitted line.
func record(t *testing.T, line string) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("line %q: %v", line, err)
	}
	return m
}

func TestHandlerBasicRecord(t *testing.T) {
	var buf strings.Builder
	log := New(&buf, slog.LevelInfo)
	log.Info("hello", "n", 42, "ok", true, "ratio", 0.5, "who", "world")

	m := record(t, strings.TrimSpace(buf.String()))
	if m["level"] != "INFO" || m["msg"] != "hello" {
		t.Fatalf("record = %v", m)
	}
	if m["n"] != float64(42) || m["ok"] != true || m["ratio"] != 0.5 || m["who"] != "world" {
		t.Fatalf("attrs = %v", m)
	}
	ts := m["ts"].(string)
	if _, err := time.Parse(time.RFC3339Nano, ts); err != nil || !strings.HasSuffix(ts, "Z") {
		t.Fatalf("ts %q is not a UTC RFC 3339 time (err %v)", ts, err)
	}
	// Field order is part of the schema: ts, level, msg lead the line.
	if line := buf.String(); !strings.HasPrefix(line, `{"ts":"`) ||
		!strings.Contains(line, `","level":"INFO","msg":"hello","n":42,`) {
		t.Fatalf("line does not lead with ts, level, msg: %s", line)
	}
}

func TestHandlerLevelFilter(t *testing.T) {
	var buf strings.Builder
	log := New(&buf, slog.LevelWarn)
	log.Info("dropped")
	log.Warn("kept")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 || record(t, lines[0])["msg"] != "kept" {
		t.Fatalf("filtered output = %q", buf.String())
	}
}

func TestHandlerTraceStamping(t *testing.T) {
	var buf strings.Builder
	log := New(&buf, slog.LevelInfo)
	tr := obs.NewTracer(obs.NewRingSink(8))
	ctx, span := tr.Start(context.Background(), "op")
	log.InfoContext(ctx, "inside span")
	log.InfoContext(context.Background(), "outside span")
	span.End()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	in, out := record(t, lines[0]), record(t, lines[1])
	sc := span.Context()
	if in["trace_id"] != sc.TraceID || in["span_id"] != sc.SpanID {
		t.Fatalf("in-span record = %v, want trace %s span %s", in, sc.TraceID, sc.SpanID)
	}
	if _, ok := out["trace_id"]; ok {
		t.Fatalf("out-of-span record carries a trace_id: %v", out)
	}

	// A remote context (extracted traceparent) stamps the same way, so the
	// server logs correlate even before its own span starts.
	buf.Reset()
	rctx := obs.ContextWithRemote(context.Background(), sc)
	log.InfoContext(rctx, "remote")
	if m := record(t, strings.TrimSpace(buf.String())); m["trace_id"] != sc.TraceID {
		t.Fatalf("remote record = %v", m)
	}
}

func TestHandlerAttrKinds(t *testing.T) {
	var buf strings.Builder
	log := New(&buf, slog.LevelInfo)
	log.Info("kinds",
		slog.Duration("d", 1500*time.Millisecond),
		slog.Time("when", time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)),
		slog.Any("err", errors.New("boom")),
		slog.Any("list", []int{1, 2}),
		slog.Group("g", slog.String("inner", "x")),
	)
	m := record(t, strings.TrimSpace(buf.String()))
	if m["d"] != "1.5s" {
		t.Fatalf("duration = %v", m["d"])
	}
	if m["when"] != "2026-01-02T03:04:05Z" {
		t.Fatalf("time = %v", m["when"])
	}
	if m["err"] != "boom" {
		t.Fatalf("error = %v", m["err"])
	}
	if list, ok := m["list"].([]any); !ok || len(list) != 2 {
		t.Fatalf("list = %v", m["list"])
	}
	if g, ok := m["g"].(map[string]any); !ok || g["inner"] != "x" {
		t.Fatalf("group nesting = %v", m)
	}
}

func TestHandlerWithAttrsAndGroup(t *testing.T) {
	var buf strings.Builder
	log := New(&buf, slog.LevelInfo).With("service", "authserve").WithGroup("req")
	log.Info("msg", "route", "verify")
	m := record(t, strings.TrimSpace(buf.String()))
	if m["service"] != "authserve" {
		t.Fatalf("WithAttrs lost: %v", m)
	}
	if req, ok := m["req"].(map[string]any); !ok || req["route"] != "verify" {
		t.Fatalf("WithGroup nesting lost: %v", m)
	}
}

func TestHandlerConcurrentWriters(t *testing.T) {
	var buf lockedBuffer
	log := New(&buf, slog.LevelInfo)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				log.Info("m", "w", w, "i", i)
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("%d lines, want 400", len(lines))
	}
	for _, line := range lines {
		record(t, line) // every line must be standalone valid JSON
	}
}

type lockedBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo,
		"warn": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted 'loud'")
	}
}

func TestNopDiscards(t *testing.T) {
	log := Nop()
	if log.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("Nop logger claims to be enabled")
	}
	log.Error("into the void") // must not panic
}
