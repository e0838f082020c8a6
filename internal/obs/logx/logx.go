// Package logx is the repo's structured logging layer: log/slog's JSON
// handler, one object per line, with every record stamped with the trace
// and span IDs carried by the context (package obs). A log line written
// while a span is open — or while handling a request whose traceparent
// header was extracted — therefore joins the same distributed trace its
// spans belong to, which is what lets operators pivot from a log record to
// the full cross-process trace and back.
//
// Record schema:
//
//	{"ts":"2026-01-02T15:04:05.999999999Z","level":"INFO","msg":"...",
//	 <attrs...>,"trace_id":"<32 hex>","span_id":"<16 hex>"}
//
// ts, level and msg lead every line; trace_id/span_id follow the
// attributes and are present only when the context carries a span. Times
// render in UTC, time.Duration as its String() form ("4.9ms"), errors as
// their message, and groups as nested objects (a logger's open group
// holds the trace IDs too).
package logx

import (
	"context"
	"fmt"
	"io"
	"log/slog"

	"ropuf/internal/obs"
)

// New returns a logger writing JSON lines at or above level (nil means
// info) to w.
func New(w io.Writer, level slog.Leveler) *slog.Logger {
	h := slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level, ReplaceAttr: replaceAttr})
	return slog.New(traceHandler{h})
}

// replaceAttr renames the record time to ts and renders times in UTC and
// durations as their String() form.
func replaceAttr(groups []string, a slog.Attr) slog.Attr {
	if len(groups) == 0 && a.Key == slog.TimeKey {
		a.Key = "ts"
	}
	switch a.Value.Kind() {
	case slog.KindTime:
		a.Value = slog.TimeValue(a.Value.Time().UTC())
	case slog.KindDuration:
		a.Value = slog.StringValue(a.Value.Duration().String())
	}
	return a
}

// traceHandler adds trace_id/span_id from the record's context.
type traceHandler struct{ slog.Handler }

func (h traceHandler) Handle(ctx context.Context, r slog.Record) error {
	if sc, ok := obs.SpanContextOf(ctx); ok {
		r.AddAttrs(slog.String("trace_id", sc.TraceID), slog.String("span_id", sc.SpanID))
	}
	return h.Handler.Handle(ctx, r)
}

func (h traceHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return traceHandler{h.Handler.WithAttrs(attrs)}
}

func (h traceHandler) WithGroup(name string) slog.Handler {
	return traceHandler{h.Handler.WithGroup(name)}
}

// Nop returns a logger that discards everything, so instrumented code can
// hold a non-nil *slog.Logger unconditionally.
func Nop() *slog.Logger { return slog.New(slog.DiscardHandler) }

// ParseLevel parses a -log-level flag value ("debug", "info", "warn",
// "error", case-insensitive, with slog's offset forms like "info+2").
func ParseLevel(s string) (slog.Level, error) {
	var l slog.Level
	if err := l.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("logx: level %q (want debug, info, warn, or error)", s)
	}
	return l, nil
}
