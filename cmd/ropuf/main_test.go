package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ropuf/internal/metrics"
)

func TestRunList(t *testing.T) {
	if err := run(context.Background(), []string{"list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownCommand(t *testing.T) {
	if err := run(context.Background(), []string{"bogus"}); err == nil {
		t.Fatal("unknown command accepted")
	}
	if err := run(context.Background(), []string{"experiment"}); err == nil {
		t.Fatal("experiment without IDs accepted")
	}
	if err := run(context.Background(), []string{"experiment", "nope"}); err == nil {
		t.Fatal("unknown experiment ID accepted")
	}
}

func TestRunFleet(t *testing.T) {
	if err := run(context.Background(), []string{"fleet", "-devices", "8", "-pairs", "8", "-stages", "5", "-workers", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFleetBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"fleet", "-mode", "case3"}); err == nil {
		t.Fatal("unknown fleet mode accepted")
	}
	if err := run(context.Background(), []string{"fleet", "-devices", "0"}); err == nil {
		t.Fatal("zero-device fleet accepted")
	}
	if err := run(context.Background(), []string{"fleet", "-bogus"}); err == nil {
		t.Fatal("unknown fleet flag accepted")
	}
}

// TestRunFleetCancelled proves a pre-cancelled context aborts the batch with
// the cancellation error rather than hanging or succeeding silently.
func TestRunFleetCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, []string{"fleet", "-devices", "16", "-pairs", "4", "-stages", "5"})
	if err == nil {
		t.Fatal("cancelled fleet run reported success")
	}
	if !strings.Contains(err.Error(), "cancel") {
		t.Fatalf("err = %v, want a cancellation error", err)
	}
}

// TestRunFleetObservability runs a fleet batch with the metrics endpoint and
// trace output enabled, then checks the exposition and the span log.
func TestRunFleetObservability(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	// Capture the announced listen address from stderr.
	oldStderr := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	runErr := run(context.Background(), []string{"fleet",
		"-devices", "8", "-pairs", "4", "-stages", "5",
		"-metrics-addr", "127.0.0.1:0", "-trace-out", tracePath})
	w.Close()
	os.Stderr = oldStderr
	stderr, _ := io.ReadAll(r)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if !strings.Contains(string(stderr), "serving /metrics") {
		t.Fatalf("stderr %q does not announce the metrics endpoint", stderr)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	// 8 enroll device spans + batch span + 8 evaluate spans + batch span.
	if len(lines) != 18 {
		t.Fatalf("trace has %d spans, want 18", len(lines))
	}
	names := map[string]int{}
	for _, line := range lines {
		var ev struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		names[ev.Name]++
	}
	if names["fleet.enroll.device"] != 8 || names["fleet.enroll"] != 1 ||
		names["fleet.evaluate.device"] != 8 || names["fleet.evaluate"] != 1 {
		t.Fatalf("span name counts = %v", names)
	}
}

// TestObsSessionMetricsEndpoint scrapes a live session the way the
// acceptance criteria describe: Prometheus text with the fleet counters and
// stage histograms, plus a reachable pprof index.
func TestObsSessionMetricsEndpoint(t *testing.T) {
	session, err := openObs("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	counters := metrics.NewFleetCounters(session.Registry)
	counters.DevicesEnrolled.Add(4)
	counters.ObserveStage("enroll", 5*time.Millisecond)
	for _, url := range []string{
		fmt.Sprintf("http://%s/metrics", session.server.Addr()),
		fmt.Sprintf("http://%s/healthz", session.server.Addr()),
		fmt.Sprintf("http://%s/debug/pprof/", session.server.Addr()),
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", url, resp.StatusCode)
		}
		if url[len(url)-8:] == "/metrics" {
			for _, want := range []string{
				"ropuf_fleet_devices_enrolled_total",
				"ropuf_fleet_stage_duration_seconds_bucket",
			} {
				if !strings.Contains(string(body), want) {
					t.Fatalf("metrics body missing %q:\n%s", want, body)
				}
			}
		}
	}
}

func TestRunSingleExperimentWithOut(t *testing.T) {
	dir := t.TempDir()
	old := *outDir
	*outDir = dir
	defer func() { *outDir = old }()
	if err := run(context.Background(), []string{"experiment", "tableV"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "tableV.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Configurable PUFs") {
		t.Fatal("written report missing expected content")
	}
}
