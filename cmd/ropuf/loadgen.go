package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"strconv"

	"ropuf/internal/auth"
	"ropuf/internal/authserve"
	"ropuf/internal/core"
	"ropuf/internal/fleet"
	"ropuf/internal/obs"
	"ropuf/internal/tracestat"
)

// runLoadgen drives a running authserve instance with a synthetic device
// fleet and reports sustained throughput and latency percentiles. It runs
// three phases:
//
//  1. enroll: POST each fabricated device's measurements (409 from a
//     previous run against a persistent store counts as success);
//  2. prepare: draw challenges and precompute the honest prover responses
//     from a noisy re-measurement of each device's silicon;
//  3. verify: hammer POST /v1/verify with the prepared responses under
//     -concurrency workers, timing every request.
//
// Precomputing responses keeps phase 3 pure protocol load — the measured
// req/s is the server's verify throughput, not the client's silicon
// simulation speed. The report is printed for a human; recorded perf
// numbers come from benchmarks (perfbench's auth workload measures this
// path), so loadgen writes no file other than the -trace-out span log.
//
// With -trace-out every request runs inside a client span whose identity is
// injected as a traceparent header; point the server at its own -trace-out
// file and `ropuf tracestat client.jsonl server.jsonl` stitches the two
// into end-to-end traces.
func runLoadgen(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "authserve base URL")
	numDevices := fs.Int("devices", 128, "synthetic devices to enroll")
	pairs := fs.Int("pairs", 128, "PUF pairs per device")
	stages := fs.Int("stages", 13, "ring stages per pair")
	k := fs.Int("k", 16, "challenge length (bits per authentication)")
	rounds := fs.Int("rounds", 0, "verify rounds per device (0 = until its pairs run out)")
	concurrency := fs.Int("concurrency", 32, "concurrent client workers")
	mode := fs.String("mode", "full", "load shape: full (enroll+challenge+verify) or enroll (time the enroll phase only — the group-commit WAL benchmark)")
	noise := fs.Float64("noise", 2, "re-measurement noise sigma (ps)")
	seed := fs.Uint64("seed", 1, "fleet fabrication seed")
	enrollWire := fs.String("enroll-wire", "binary", "enroll request encoding: binary (application/x-ropuf-enroll) or json")
	metricsAddr := fs.String("metrics-addr", "", "serve the client's own /metrics and /v1/stats on this address, so `ropuf watch` can poll the load generator alongside the server")
	trace := fs.String("trace-out", *traceOut, "write client span events as JSON lines to this file")
	harvest := fs.Bool("harvest", false, "adversary mode: hammer one device's challenges until the server's abuse scorer flags it, then exit")
	harvestTimeout := fs.Duration("harvest-timeout", 30*time.Second, "give up if the harvest flag has not fired after this long")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *enrollWire != "binary" && *enrollWire != "json" {
		return fmt.Errorf("loadgen: -enroll-wire must be binary or json, got %q", *enrollWire)
	}
	if *mode != "full" && *mode != "enroll" {
		return fmt.Errorf("loadgen: -mode must be full or enroll, got %q", *mode)
	}
	if *harvest && *mode != "full" {
		return fmt.Errorf("loadgen: -harvest needs -mode full")
	}
	if *concurrency < 1 {
		return fmt.Errorf("loadgen: -concurrency must be at least 1, got %d", *concurrency)
	}
	// The client keeps its own request metrics: during an incident the
	// delta between client-observed and server-observed rate/latency is
	// what separates a slow server from a slow network or client. The
	// metrics endpoint comes up before fleet fabrication, which takes
	// seconds at scale — a watcher polling this process must not see
	// connection-refused while the fleet is still being synthesized.
	reg := obs.NewRegistry()
	reqTotal := reg.NewCounterVec("ropuf_loadgen_requests_total",
		"Requests sent by the load generator; code is the HTTP status or \"error\" for transport failures.",
		"route", "code")
	reqDur := reg.NewHistogramVec("ropuf_loadgen_request_duration_seconds",
		"Client-observed request latency, connection setup included.",
		nil, "route", "code")
	if *metricsAddr != "" {
		msrv, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			return fmt.Errorf("loadgen: metrics server: %w", err)
		}
		defer msrv.Close()
		fmt.Printf("client metrics on http://%s/metrics\n", msrv.Addr())
	}
	devices, err := fleet.Synthetic(*numDevices, *pairs, *stages, *seed)
	if err != nil {
		return err
	}
	// The local prover enrollments are pure CPU (selection over every pair
	// of every device) and independent per device, so they fan out across
	// the worker pool instead of serializing in front of the load phases.
	// Enroll-only runs never answer challenges and skip the prep entirely.
	var provers []*auth.Prover
	if *mode != "enroll" {
		provers = make([]*auth.Prover, len(devices))
		err = forEach(ctx, *concurrency, len(devices), func(i int) error {
			enr, err := core.Enroll(devices[i].Pairs, core.Case2, 0, core.Options{})
			if err != nil {
				return fmt.Errorf("loadgen: enrolling %s locally: %w", devices[i].ID, err)
			}
			provers[i] = &auth.Prover{Enrollment: enr}
			return nil
		})
		if err != nil {
			return err
		}
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *concurrency,
		MaxIdleConnsPerHost: *concurrency,
	}}
	lg := &loadgen{base: *addr, client: client, reqTotal: reqTotal, reqDur: reqDur}
	if *trace != "" {
		traceFile, err := os.Create(*trace)
		if err != nil {
			return fmt.Errorf("loadgen: trace output: %w", err)
		}
		defer func() {
			_ = traceFile.Sync()
			_ = traceFile.Close()
		}()
		lg.tracer = obs.NewTracer(obs.NewJSONLSink(traceFile), obs.WithService("loadgen"))
	}

	// Phase 1: enroll the fleet over HTTP. Per-request latency is recorded
	// by device index (race-free without coordination) because enroll-only
	// runs report percentiles: under the group-commit WAL, concurrent
	// enrolls share fsyncs, so p50 at -concurrency 64 should sit near the
	// single-client latency while enroll/s scales.
	enrollStart := time.Now()
	freshPerDevice := make([]int, len(devices))
	enrollLat := make([]time.Duration, len(devices))
	err = forEach(ctx, *concurrency, len(devices), func(i int) error {
		t0 := time.Now()
		defer func() { enrollLat[i] = time.Since(t0) }()
		d := devices[i]
		req := authserve.EnrollRequest{ID: d.ID, Mode: "case2"}
		for _, p := range d.Pairs {
			req.Pairs = append(req.Pairs, authserve.PairWire{Alpha: p.Alpha, Beta: p.Beta})
		}
		var resp authserve.EnrollResponse
		var code int
		var err error
		if *enrollWire == "binary" {
			var body []byte
			if body, err = authserve.AppendEnrollBinary(nil, &req); err != nil {
				return fmt.Errorf("enroll %s: %w", d.ID, err)
			}
			code, err = lg.postRaw(ctx, "enroll", "/v1/enroll", authserve.EnrollContentTypeBinary, body, &resp)
		} else {
			code, err = lg.postJSON(ctx, "enroll", "/v1/enroll", req, &resp)
		}
		switch {
		case err != nil:
			return fmt.Errorf("enroll %s: %w", d.ID, err)
		case code == http.StatusOK:
			freshPerDevice[i] = resp.Fresh
			return nil
		case code == http.StatusConflict:
			// Already enrolled (persistent store from a previous run).
			var info authserve.DeviceResponse
			if code, err := lg.getJSON(ctx, "device", "/v1/devices/"+d.ID, &info); err != nil || code != http.StatusOK {
				return fmt.Errorf("enroll %s: device already exists but is unreadable (%d, %v)", d.ID, code, err)
			}
			freshPerDevice[i] = info.Fresh
			return nil
		default:
			return fmt.Errorf("enroll %s: unexpected status %d", d.ID, code)
		}
	})
	if err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}
	enrollElapsed := time.Since(enrollStart)
	fmt.Printf("enrolled %d devices in %s — %.0f enroll/s\n",
		len(devices), enrollElapsed.Round(time.Millisecond),
		float64(len(devices))/enrollElapsed.Seconds())

	if *mode == "enroll" {
		slices.Sort(enrollLat)
		p50, p99 := tracestat.Percentile(enrollLat, 0.50), tracestat.Percentile(enrollLat, 0.99)
		fmt.Printf("  latency p50 %s  p90 %s  p99 %s  max %s\n",
			p50.Round(time.Microsecond), tracestat.Percentile(enrollLat, 0.90).Round(time.Microsecond),
			p99.Round(time.Microsecond), enrollLat[len(enrollLat)-1].Round(time.Microsecond))
		return nil
	}

	if *harvest {
		return lg.runHarvest(ctx, devices[0].ID, *harvestTimeout)
	}

	// Phase 2: draw challenges and precompute honest responses.
	type verifyJob struct{ req authserve.VerifyRequest }
	jobMu := sync.Mutex{}
	var jobs []verifyJob
	prepStart := time.Now()
	err = forEach(ctx, *concurrency, len(devices), func(i int) error {
		d := devices[i]
		n := freshPerDevice[i] / *k
		if *rounds > 0 && *rounds < n {
			n = *rounds
		}
		fresh := fleet.Remeasure(d, *noise, *seed+uint64(i)+1)
		var local []verifyJob
		for r := 0; r < n; r++ {
			var ch authserve.ChallengeResponse
			code, err := lg.postJSON(ctx, "challenge", "/v1/challenge", authserve.ChallengeRequest{ID: d.ID, K: *k}, &ch)
			if err != nil {
				return fmt.Errorf("challenge %s: %w", d.ID, err)
			}
			if code == http.StatusConflict { // pool exhausted early
				break
			}
			if code != http.StatusOK {
				return fmt.Errorf("challenge %s: unexpected status %d", d.ID, code)
			}
			resp, err := provers[i].Respond(&auth.Challenge{DeviceID: d.ID, Pairs: ch.Pairs}, fresh)
			if err != nil {
				return fmt.Errorf("respond %s: %w", d.ID, err)
			}
			local = append(local, verifyJob{req: authserve.VerifyRequest{
				ID: d.ID, ChallengeID: ch.ChallengeID, Response: resp.String(),
			}})
		}
		jobMu.Lock()
		jobs = append(jobs, local...)
		jobMu.Unlock()
		return nil
	})
	if err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}
	prepElapsed := time.Since(prepStart)
	if len(jobs) == 0 {
		return errors.New("loadgen: no challenges prepared (pairs exhausted? lower -k or raise -pairs)")
	}
	fmt.Printf("prepared %d challenges (%d-bit) in %s\n", len(jobs), *k, prepElapsed.Round(time.Millisecond))

	// Phase 3: hammer verify. 429s are retried with a capped backoff that
	// honors the server's Retry-After hint; only a job still throttled
	// after the last attempt lands in the throttled bucket.
	bo := backoff{base: 25 * time.Millisecond, cap: 2 * time.Second}
	var accepted, rejected, throttled, transport atomic.Int64
	all := make([]time.Duration, len(jobs))
	verifyStart := time.Now()
	// A cancellation is reported from ctx below, after the counts settle.
	_ = fleet.Dispatch(ctx, len(jobs), *concurrency, func(i int) {
		t0 := time.Now()
		var vr authserve.VerifyResponse
		code, err := lg.postJSONBackoff(ctx, "verify", "/v1/verify", jobs[i].req, &vr, bo, 8)
		all[i] = time.Since(t0)
		switch {
		case err != nil:
			transport.Add(1)
		case code == http.StatusTooManyRequests:
			throttled.Add(1)
		case code == http.StatusOK && vr.OK:
			accepted.Add(1)
		default:
			rejected.Add(1)
		}
	})
	verifyElapsed := time.Since(verifyStart)
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("loadgen: cancelled mid-verify: %w", err)
	}

	slices.Sort(all)
	p50, p99 := tracestat.Percentile(all, 0.50), tracestat.Percentile(all, 0.99)
	rps := float64(len(all)) / verifyElapsed.Seconds()
	fmt.Printf("verified %d responses in %s — %.0f verify/s (%d workers)\n",
		len(all), verifyElapsed.Round(time.Millisecond), rps, *concurrency)
	fmt.Printf("  accepted %d  rejected %d  throttled(429) %d  transport errors %d\n",
		accepted.Load(), rejected.Load(), throttled.Load(), transport.Load())
	fmt.Printf("  latency p50 %s  p90 %s  p99 %s  max %s\n",
		p50.Round(time.Microsecond), tracestat.Percentile(all, 0.90).Round(time.Microsecond),
		p99.Round(time.Microsecond), all[len(all)-1].Round(time.Microsecond))
	if transport.Load() > 0 {
		return fmt.Errorf("loadgen: %d requests failed at the transport layer", transport.Load())
	}
	return nil
}

// loadgen is the shared HTTP plumbing of the load phases.
type loadgen struct {
	base   string
	client *http.Client
	tracer *obs.Tracer // nil unless -trace-out is set

	reqTotal *obs.CounterVec   // requests by route and status code
	reqDur   *obs.HistogramVec // client-observed latency by route and code
}

// forEach runs fn(0..n-1) on a fleet.Dispatch pool of `workers`
// goroutines. The first error cancels the batch's context, so no further
// index starts, and is returned; so is a cancellation of ctx. It serves
// both the HTTP load phases and the CPU-bound local prover preparation.
func forEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	batch, stop := context.WithCancelCause(ctx)
	defer stop(nil)
	// The cause returned below says why the batch stopped, if it did.
	_ = fleet.Dispatch(batch, n, workers, func(i int) {
		if batch.Err() != nil {
			return
		}
		if err := fn(i); err != nil {
			stop(err)
		}
	})
	return context.Cause(batch)
}

func (lg *loadgen) postJSON(ctx context.Context, route, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	return lg.postRaw(ctx, route, path, "application/json", body, out)
}

func (lg *loadgen) postRaw(ctx context.Context, route, path, contentType string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, lg.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", contentType)
	return lg.do(ctx, route, req, out)
}

func (lg *loadgen) getJSON(ctx context.Context, route, path string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, lg.base+path, nil)
	if err != nil {
		return 0, err
	}
	return lg.do(ctx, route, req, out)
}

// do sends the request inside a client span and injects its trace identity
// as a traceparent header, so the server's spans land in the same trace and
// `ropuf tracestat` can stitch the two JSONL files (DESIGN.md §9).
func (lg *loadgen) do(ctx context.Context, route string, req *http.Request, out any) (int, error) {
	code, _, err := lg.doHdr(ctx, route, req, out)
	return code, err
}

// doHdr is do plus the server's parsed Retry-After hint, for callers
// that back off on 429 instead of hammering a throttling server.
func (lg *loadgen) doHdr(ctx context.Context, route string, req *http.Request, out any) (int, time.Duration, error) {
	spanCtx, span := lg.tracer.Start(ctx, "loadgen."+route)
	defer span.End()
	obs.Inject(spanCtx, req.Header)
	t0 := time.Now()
	resp, err := lg.client.Do(req)
	if err != nil {
		span.SetAttr("error", err.Error())
		lg.record(route, "error", time.Since(t0))
		return 0, 0, err
	}
	defer func() { lg.record(route, strconv.Itoa(resp.StatusCode), time.Since(t0)) }()
	defer resp.Body.Close()
	span.SetAttr("code", strconv.Itoa(resp.StatusCode))
	retryAfter := parseRetryAfter(resp.Header.Get("Retry-After"))
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<24))
	if err != nil {
		return resp.StatusCode, retryAfter, err
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, retryAfter, fmt.Errorf("decoding %s response: %w", req.URL.Path, err)
		}
	}
	return resp.StatusCode, retryAfter, nil
}

// record counts one request in the client-side metrics. Harness helpers
// (tests) construct loadgen without a registry; that stays legal.
func (lg *loadgen) record(route, code string, elapsed time.Duration) {
	if lg.reqTotal == nil {
		return
	}
	lg.reqTotal.With(route, code).Inc()
	lg.reqDur.With(route, code).Observe(elapsed.Seconds())
}

// postJSONBackoff posts like postJSON but retries 429 responses up to
// maxAttempts times with a capped exponential backoff, preferring the
// server's Retry-After hint over the local schedule. Each 429 seen is
// counted by the caller only if the final attempt is still throttled —
// the returned code is the last attempt's status.
func (lg *loadgen) postJSONBackoff(ctx context.Context, route, path string, in, out any, bo backoff, maxAttempts int) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, lg.base+path, bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		code, retryAfter, err := lg.doHdr(ctx, route, req, out)
		if err != nil || code != http.StatusTooManyRequests || attempt+1 >= maxAttempts {
			return code, err
		}
		select {
		case <-ctx.Done():
			return code, ctx.Err()
		case <-time.After(bo.delay(attempt, retryAfter)):
		}
	}
}

// backoff computes capped exponential retry delays. The zero value is
// unusable; pick a base near the expected recovery time and a cap that
// bounds the worst-case stall per attempt.
type backoff struct {
	base time.Duration // delay before the first retry
	cap  time.Duration // upper bound on any single delay
}

// delay returns the sleep before retry `attempt` (0-based): base<<attempt,
// overridden by a longer server-provided Retry-After hint, both clamped
// to cap. A zero or garbage hint leaves the local schedule in charge.
func (b backoff) delay(attempt int, retryAfter time.Duration) time.Duration {
	if attempt > 20 {
		attempt = 20 // avoid shift overflow; cap clamps long before this
	}
	d := b.base << uint(attempt)
	if retryAfter > d {
		d = retryAfter
	}
	if d > b.cap {
		d = b.cap
	}
	return d
}

// parseRetryAfter interprets a Retry-After header value as a delay. Only
// the delta-seconds form is recognized; HTTP dates and garbage return 0
// so the local backoff schedule decides.
func parseRetryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// runHarvest plays the adversary the abuse scorer exists to catch: it
// hammers a single enrolled device's challenge endpoint with k=1 draws
// (maximizing draw count per pair) and answers each with a fixed guess,
// so both the challenge-rate and verify-fail signals light up. It polls
// GET /v1/audit/flagged until the device is listed, asserts /healthz
// reports device_abuse, prints the evidence window as JSON, and exits
// non-zero if the flag never fires within the timeout.
func (lg *loadgen) runHarvest(ctx context.Context, target string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	draws, fails := 0, 0
	start := time.Now()
	for time.Now().Before(deadline) && ctx.Err() == nil {
		var ch authserve.ChallengeResponse
		code, err := lg.postJSON(ctx, "challenge", "/v1/challenge", authserve.ChallengeRequest{ID: target, K: 1}, &ch)
		if err != nil {
			return fmt.Errorf("harvest: challenge %s: %w", target, err)
		}
		switch code {
		case http.StatusOK:
			draws++
			// A constant guess fails roughly half the k=1 verifies, feeding
			// the fail-ratio signal alongside the raw challenge rate.
			var vr authserve.VerifyResponse
			vcode, err := lg.postJSON(ctx, "verify", "/v1/verify", authserve.VerifyRequest{
				ID: target, ChallengeID: ch.ChallengeID, Response: strings.Repeat("0", len(ch.Pairs)),
			}, &vr)
			if err != nil {
				return fmt.Errorf("harvest: verify %s: %w", target, err)
			}
			if vcode == http.StatusOK && !vr.OK {
				fails++
			}
		case http.StatusConflict:
			// Pool drained before the flag fired: the drain itself is the
			// exhaustion signal, so keep polling for the flag.
			time.Sleep(100 * time.Millisecond)
		case http.StatusTooManyRequests:
			time.Sleep(50 * time.Millisecond)
		default:
			return fmt.Errorf("harvest: challenge %s: unexpected status %d", target, code)
		}
		if draws%8 != 0 && code == http.StatusOK {
			continue
		}
		dev, err := lg.flaggedDevice(ctx, target)
		if err != nil {
			return err
		}
		if dev == nil {
			continue
		}
		evidence, _ := json.Marshal(dev)
		fmt.Printf("harvest: %s flagged after %d draws (%d bogus verify fails) in %s\n",
			target, draws, fails, time.Since(start).Round(time.Millisecond))
		fmt.Printf("harvest evidence: %s\n", evidence)
		return lg.checkAbuseHealth(ctx)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("harvest: cancelled: %w", err)
	}
	return fmt.Errorf("harvest: %s not flagged after %d draws within %s", target, draws, timeout)
}

// flaggedDevice returns the audit endpoint's entry for id, or nil if the
// device is not currently flagged.
func (lg *loadgen) flaggedDevice(ctx context.Context, id string) (*authserve.FlaggedDevice, error) {
	var fr authserve.FlaggedResponse
	code, err := lg.getJSON(ctx, "flagged", "/v1/audit/flagged", &fr)
	if err != nil {
		return nil, fmt.Errorf("harvest: flagged poll: %w", err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("harvest: flagged poll: unexpected status %d", code)
	}
	for i := range fr.Devices {
		if fr.Devices[i].ID == id {
			return &fr.Devices[i], nil
		}
	}
	return nil, nil
}

// checkAbuseHealth asserts /healthz is degraded with a device_abuse
// reason. Decoded from raw bytes because the degraded endpoint answers
// 503, which the usual JSON helpers treat as body-less.
func (lg *loadgen) checkAbuseHealth(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, lg.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := lg.client.Do(req)
	if err != nil {
		return fmt.Errorf("harvest: healthz: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return fmt.Errorf("harvest: healthz: %w", err)
	}
	if !bytes.Contains(body, []byte("device_abuse")) {
		return fmt.Errorf("harvest: healthz (%d) does not report device_abuse: %s", resp.StatusCode, body)
	}
	fmt.Printf("harvest: healthz degraded with device_abuse (%d)\n", resp.StatusCode)
	return nil
}
