package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sync/atomic"
	"testing"
	"time"

	"ropuf/internal/authserve"
)

// TestBackoffSchedule pins the capped exponential schedule: base<<attempt,
// a longer Retry-After hint wins, and everything clamps to cap.
func TestBackoffSchedule(t *testing.T) {
	bo := backoff{base: 25 * time.Millisecond, cap: 2 * time.Second}
	cases := []struct {
		attempt    int
		retryAfter time.Duration
		want       time.Duration
	}{
		{0, 0, 25 * time.Millisecond},
		{1, 0, 50 * time.Millisecond},
		{2, 0, 100 * time.Millisecond},
		{3, 0, 200 * time.Millisecond},
		{6, 0, 1600 * time.Millisecond},
		{7, 0, 2 * time.Second},                   // 3.2s clamps to cap
		{100, 0, 2 * time.Second},                 // shift-overflow guard still clamps
		{0, time.Second, time.Second},             // hint longer than local: hint wins
		{6, time.Second, 1600 * time.Millisecond}, // hint shorter: schedule wins
		{0, 5 * time.Second, 2 * time.Second},     // hint above cap clamps
		{2, -time.Second, 100 * time.Millisecond}, // nonsense hint ignored
	}
	for _, c := range cases {
		if got := bo.delay(c.attempt, c.retryAfter); got != c.want {
			t.Errorf("delay(%d, %s) = %s, want %s", c.attempt, c.retryAfter, got, c.want)
		}
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"1", time.Second},
		{" 30 ", 30 * time.Second},
		{"0", 0},
		{"-5", 0},
		{"", 0},
		{"garbage", 0},
		{"Wed, 21 Oct 2026 07:28:00 GMT", 0}, // HTTP-date form not supported
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.in); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %s, want %s", c.in, got, c.want)
		}
	}
}

// TestPostJSONBackoffRetriesOn429 drives the retry loop against a server
// that throttles the first two attempts with a Retry-After hint and then
// accepts, checking the client waited at least the hinted delays instead
// of hammering.
func TestPostJSONBackoffRetriesOn429(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0") // delta-seconds form; schedule supplies the floor
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	lg := &loadgen{base: srv.URL, client: srv.Client()}
	bo := backoff{base: time.Millisecond, cap: 10 * time.Millisecond}
	var out struct {
		OK bool `json:"ok"`
	}
	start := time.Now()
	code, err := lg.postJSONBackoff(context.Background(), "verify", "/", struct{}{}, &out, bo, 8)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || !out.OK {
		t.Fatalf("got code %d ok=%v after retries, want 200 ok", code, out.OK)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
	// Two sleeps of 1ms and 2ms: the total must reflect at least that.
	if elapsed := time.Since(start); elapsed < 3*time.Millisecond {
		t.Fatalf("retries completed in %s, want >= 3ms of backoff", elapsed)
	}
}

// TestPostJSONBackoffGivesUp checks a persistently throttling server is
// reported as 429 after maxAttempts rather than retried forever.
func TestPostJSONBackoffGivesUp(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()

	lg := &loadgen{base: srv.URL, client: srv.Client()}
	bo := backoff{base: time.Microsecond, cap: time.Microsecond}
	code, err := lg.postJSONBackoff(context.Background(), "verify", "/", struct{}{}, nil, bo, 3)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusTooManyRequests {
		t.Fatalf("got code %d, want 429", code)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want exactly maxAttempts=3", got)
	}
}

// TestLoadgenEnrollMode runs the enroll-only load shape end to end against
// an in-process authserve: it must enroll the whole fleet, report enroll
// throughput plus latency percentiles, and never touch the challenge or
// verify routes.
func TestLoadgenEnrollMode(t *testing.T) {
	store, err := authserve.Open(authserve.StoreOptions{Shards: 4, Dir: t.TempDir(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := authserve.NewServer(store, authserve.ServerOptions{})
	var challenges atomic.Int64
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/challenge" || r.URL.Path == "/v1/verify" {
			challenges.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	err = runLoadgen(context.Background(), []string{
		"-addr", ts.URL, "-mode", "enroll",
		"-devices", "8", "-pairs", "4", "-stages", "5", "-concurrency", "4",
	})
	if err != nil {
		t.Fatalf("runLoadgen: %v", err)
	}
	if n := store.NumDevices(); n != 8 {
		t.Fatalf("store has %d devices after enroll run, want 8", n)
	}
	if c := challenges.Load(); c != 0 {
		t.Fatalf("enroll mode sent %d challenge/verify requests, want 0", c)
	}
}

// TestLoadgenStopsAtFirstEnrollError answers 500 to every enroll: the
// phase must fail with an error that names a device, and the first
// failure must stop the fan-out, so about the four requests in flight on
// the four workers reach the server, not all 64 (the bound of 8 leaves
// room for scheduling).
func TestLoadgenStopsAtFirstEnrollError(t *testing.T) {
	var enrolls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/enroll" {
			enrolls.Add(1)
		}
		http.Error(w, "injected failure", http.StatusInternalServerError)
	}))
	defer ts.Close()

	err := runLoadgen(context.Background(), []string{
		"-addr", ts.URL, "-mode", "enroll",
		"-devices", "64", "-pairs", "4", "-stages", "5", "-concurrency", "4",
	})
	if err == nil {
		t.Fatal("loadgen succeeded against a server that fails every enroll")
	}
	if !regexp.MustCompile(`dev-\d+`).MatchString(err.Error()) {
		t.Fatalf("error %q does not name a device", err)
	}
	if n := enrolls.Load(); n > 8 {
		t.Fatalf("%d enroll requests reached the server after the first failure, want <= 8", n)
	}
}

// TestLoadgenWritesNoFiles runs the full load shape, as the README does,
// from an empty working directory against an in-process authserve: the
// run must succeed and leave the directory empty. Loadgen once wrote a
// perf record there by default, overwriting a checkout's committed one.
func TestLoadgenWritesNoFiles(t *testing.T) {
	store, err := authserve.Open(authserve.StoreOptions{Shards: 2, Dir: t.TempDir(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ts := httptest.NewServer(authserve.NewServer(store, authserve.ServerOptions{}).Handler())
	defer ts.Close()

	dir := t.TempDir()
	t.Chdir(dir)
	err = runLoadgen(context.Background(), []string{
		"-addr", ts.URL, "-devices", "4", "-pairs", "32", "-stages", "5",
		"-k", "4", "-rounds", "1", "-concurrency", "2",
	})
	if err != nil {
		t.Fatalf("runLoadgen: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("loadgen left %s in its working directory", e.Name())
	}
}

// TestLoadgenModeValidation rejects unknown modes, harvest+enroll and a
// worker count below one.
func TestLoadgenModeValidation(t *testing.T) {
	if err := runLoadgen(context.Background(), []string{"-mode", "sideways"}); err == nil {
		t.Fatal("unknown -mode accepted")
	}
	if err := runLoadgen(context.Background(), []string{"-mode", "enroll", "-harvest"}); err == nil {
		t.Fatal("-harvest with -mode enroll accepted")
	}
	if err := runLoadgen(context.Background(), []string{"-concurrency", "0"}); err == nil {
		t.Fatal("-concurrency 0 accepted")
	}
}
