package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestMuxEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("widgets_total", "Widgets made.").Add(3)
	h := reg.NewHistogramVec("stage_seconds", "Stage latency.", nil, "stage")
	h.With("enroll").Observe(0.004)
	srv := httptest.NewServer(NewMux(reg))
	defer srv.Close()

	get := func(path string) (int, string, http.Header) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body), resp.Header
	}

	code, body, header := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if ct := header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	for _, want := range []string{
		"widgets_total 3",
		`stage_seconds_bucket{stage="enroll",le="0.005"} 1`,
		`stage_seconds_count{stage="enroll"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body, header = get("/healthz")
	if code != http.StatusOK || body != "{\"status\":\"ok\"}\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if ct := header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/healthz content type = %q", ct)
	}

	code, body, _ = get("/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
	code, _, _ = get("/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
	// The CPU profile endpoint works with a short window; this is the
	// "profile a running batch" acceptance path.
	code, _, _ = get("/debug/pprof/profile?seconds=1")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/profile = %d", code)
	}
}

// TestHealthHandlerContract is the golden test for the degradation-aware
// /healthz JSON (DESIGN.md §9): exact body for ok, status code and
// machine-readable reasons for degraded, and recovery back to ok.
func TestHealthHandlerContract(t *testing.T) {
	var reasons []HealthReason
	h := HealthHandler(func() []HealthReason { return reasons })

	get := func() (int, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		return rec.Code, rec.Body.String()
	}

	code, body := get()
	if code != http.StatusOK || body != "{\"status\":\"ok\"}\n" {
		t.Fatalf("healthy = %d %q, want 200 {\"status\":\"ok\"}", code, body)
	}

	reasons = []HealthReason{{Code: "error_budget_burn", Detail: "burning", Value: 42}}
	code, body = get()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded status = %d, want 503", code)
	}
	var rep HealthReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("degraded body %q: %v", body, err)
	}
	if rep.Status != "degraded" || len(rep.Reasons) != 1 ||
		rep.Reasons[0].Code != "error_budget_burn" || rep.Reasons[0].Value != 42 {
		t.Fatalf("degraded report = %+v", rep)
	}
	// The "ok" substring survives into the degraded JSON? No — degraded
	// must NOT read as ok to a naive probe.
	if strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("degraded body reads ok: %q", body)
	}

	reasons = nil
	if code, _ := get(); code != http.StatusOK {
		t.Fatalf("recovery = %d, want 200", code)
	}

	// Nil checker is always healthy (the NewMux /healthz).
	rec := httptest.NewRecorder()
	HealthHandler(nil)(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("nil checker = %d", rec.Code)
	}
}

// TestHardenServerTimeouts pins the slowloris hardening every HTTP server
// in the repo shares.
func TestHardenServerTimeouts(t *testing.T) {
	srv := HardenServer(&http.Server{})
	if srv.ReadHeaderTimeout != 5*time.Second {
		t.Fatalf("ReadHeaderTimeout = %v", srv.ReadHeaderTimeout)
	}
	if srv.ReadTimeout != 30*time.Second {
		t.Fatalf("ReadTimeout = %v", srv.ReadTimeout)
	}
	if srv.IdleTimeout != 2*time.Minute {
		t.Fatalf("IdleTimeout = %v", srv.IdleTimeout)
	}
	// WriteTimeout must stay unset: /debug/pprof/profile streams for
	// caller-chosen durations.
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v, want 0", srv.WriteTimeout)
	}
}

func TestServeLifecycle(t *testing.T) {
	reg := NewRegistry()
	reg.NewGauge("up", "").Set(1)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "up 1") {
		t.Fatalf("metrics body:\n%s", body)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Fatal("server still serving after Close")
	}
	// A second server on the same wildcard port must bind cleanly.
	srv2, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
}

// TestServeStatsAndBuildInfo: obs.Serve mounts the flight recorder at
// /v1/stats and registers ropuf_build_info, so every obs-served binary
// gains both without code of its own.
func TestServeStatsAndBuildInfo(t *testing.T) {
	reg := NewRegistry()
	reg.NewGauge("stats_probe", "").Set(4)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "ropuf_build_info{") {
		t.Fatalf("/metrics missing ropuf_build_info:\n%s", body)
	}

	// Serve samples once at startup, so the gauge has history immediately.
	resp, err = http.Get("http://" + srv.Addr() + "/v1/stats?series=stats_probe")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/v1/stats Content-Type = %q", ct)
	}
	if !strings.Contains(string(body), `"name":"stats_probe"`) ||
		!strings.Contains(string(body), ",4]") {
		t.Fatalf("/v1/stats body missing sampled gauge:\n%s", body)
	}
}
