package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"ropuf/internal/obs/flight"
)

// HealthReason is one machine-readable cause of degradation.
type HealthReason struct {
	// Code is a stable identifier (e.g. "error_budget_burn",
	// "queue_saturated", "snapshot_failures").
	Code string `json:"code"`
	// Detail is a human-readable explanation.
	Detail string `json:"detail"`
	// Value carries the measurement behind the reason (burn rate, queue
	// depth, failure count), when one exists.
	Value float64 `json:"value,omitempty"`
}

// HealthReport is the JSON body a degradation-aware /healthz serves:
// `{"status":"ok"}` with 200, or `{"status":"degraded","reasons":[...]}`
// with 503. The status string deliberately contains "ok" so naive
// `grep ok` liveness probes keep working against the JSON form.
type HealthReport struct {
	Status  string         `json:"status"`
	Reasons []HealthReason `json:"reasons,omitempty"`
}

// HealthFunc reports the current degradation reasons; an empty (or nil)
// slice means healthy.
type HealthFunc func() []HealthReason

// HealthHandler serves the HealthReport contract for the given checker:
// 200 + {"status":"ok"} when it returns no reasons, 503 +
// {"status":"degraded","reasons":[...]} otherwise. A nil checker is always
// healthy.
func HealthHandler(health HealthFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rep := HealthReport{Status: "ok"}
		if health != nil {
			if reasons := health(); len(reasons) > 0 {
				rep = HealthReport{Status: "degraded", Reasons: reasons}
			}
		}
		w.Header().Set("Content-Type", "application/json")
		if rep.Status != "ok" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(rep)
	}
}

// NewMux builds the observability HTTP handler: /metrics serves reg in
// Prometheus text format, /healthz answers the HealthReport JSON of an
// always-healthy checker, and /debug/pprof/* exposes the standard runtime
// profiles (CPU profile, heap, goroutines, ...).
func NewMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WriteProm(w)
	})
	mux.HandleFunc("/healthz", HealthHandler(nil))
	// Register the pprof handlers explicitly rather than importing the
	// package for its DefaultServeMux side effect, so the profiles are only
	// reachable through this mux.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// HardenServer sets the request-read timeouts every HTTP server in the
// repo uses, bounding slowloris-style clients that trickle headers or
// bodies: 5s to finish the header block, 30s for the whole request read
// (generous for a 16 MiB enrollment on a slow link), 2min keep-alive idle.
// WriteTimeout stays unset on purpose — /debug/pprof/profile streams for
// caller-chosen durations. Returns srv for call-site chaining.
func HardenServer(srv *http.Server) *http.Server {
	srv.ReadHeaderTimeout = 5 * time.Second
	srv.ReadTimeout = 30 * time.Second
	srv.IdleTimeout = 2 * time.Minute
	return srv
}

// Server is a background observability HTTP server.
type Server struct {
	ln       net.Listener
	srv      *http.Server
	recorder *flight.Recorder
	stopRec  chan struct{}
}

// Serve binds addr (e.g. ":9090", "127.0.0.1:0") and serves the NewMux
// handler in a background goroutine, plus GET /v1/stats backed by a
// flight recorder sampling reg every second — every binary that serves
// /metrics this way gains bounded time-series history for free (the
// sampler reads the registry; nothing touches request hot paths). The
// ropuf_build_info gauge is registered so pollers can label the target.
// The returned server reports its bound address via Addr — useful with
// port 0 — and stops (recorder included) via Close.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	RegisterBuildInfo(reg)
	rec := flight.NewRecorder(reg.Snapshot, flight.Options{})
	mux := NewMux(reg)
	mux.Handle("GET /v1/stats", rec.Handler())
	s := &Server{
		ln:       ln,
		srv:      HardenServer(&http.Server{Handler: mux}),
		recorder: rec,
		stopRec:  make(chan struct{}),
	}
	go rec.Run(s.stopRec)
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the flight recorder and shuts the server down, allowing up
// to two seconds for in-flight scrapes to finish.
func (s *Server) Close() error {
	close(s.stopRec)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}
