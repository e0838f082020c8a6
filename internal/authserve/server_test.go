package authserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ropuf/internal/auth"
	"ropuf/internal/core"
	"ropuf/internal/fleet"
	"ropuf/internal/obs"
	"ropuf/internal/obs/logx"
)

// testFleet fabricates a deterministic device population and the matching
// client-side enrollments (the device's frozen configurations, which the
// prover needs to answer challenges).
func testFleet(t testing.TB, n, pairs int) ([]fleet.Device, []*core.Enrollment) {
	t.Helper()
	devices, err := fleet.Synthetic(n, pairs, 13, 0x5EED)
	if err != nil {
		t.Fatal(err)
	}
	enrs := make([]*core.Enrollment, n)
	for i, d := range devices {
		enr, err := core.Enroll(d.Pairs, core.Case2, 0, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		enrs[i] = enr
	}
	return devices, enrs
}

func enrollBody(d fleet.Device) []byte {
	req := EnrollRequest{ID: d.ID, Mode: "case2"}
	for _, p := range d.Pairs {
		req.Pairs = append(req.Pairs, PairWire{Alpha: p.Alpha, Beta: p.Beta})
	}
	data, _ := json.Marshal(req)
	return data
}

// respond answers a challenge the way the physical device would: evaluate
// the challenged pairs with the frozen configurations against a fresh
// (noisy) measurement.
func respond(t testing.TB, enr *core.Enrollment, pairs []int, fresh []core.Pair) string {
	t.Helper()
	prover := &auth.Prover{Enrollment: enr}
	resp, err := prover.Respond(&auth.Challenge{Pairs: pairs}, fresh)
	if err != nil {
		t.Fatal(err)
	}
	return resp.String()
}

func newTestServer(t testing.TB, sopt StoreOptions, opt ServerOptions) (*Server, *httptest.Server) {
	t.Helper()
	store, err := Open(sopt)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, opt)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func post(t testing.TB, client *http.Client, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func get(t testing.TB, client *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func mustUnmarshal[T any](t testing.TB, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("unmarshal %T from %s: %v", v, data, err)
	}
	return v
}

// TestEndToEnd runs the full protocol over HTTP: enroll, inspect, draw a
// challenge, answer it from a noisy re-measurement, verify — then an
// impostor answering with its own silicon is rejected.
func TestEndToEnd(t *testing.T) {
	devices, enrs := testFleet(t, 2, 64)
	alice, mallory := devices[0], devices[1]
	_, ts := newTestServer(t, StoreOptions{Tolerance: 0.15, Seed: 7}, ServerOptions{})
	c := ts.Client()

	code, body := post(t, c, ts.URL+"/v1/enroll", enrollBody(alice))
	if code != http.StatusOK {
		t.Fatalf("enroll: %d %s", code, body)
	}
	er := mustUnmarshal[EnrollResponse](t, body)
	if er.ID != alice.ID || er.Pairs != 64 || er.Bits == 0 || er.Fresh != er.Bits {
		t.Fatalf("enroll response %+v", er)
	}

	code, body = get(t, c, ts.URL+"/v1/devices/"+alice.ID)
	if code != http.StatusOK {
		t.Fatalf("device: %d %s", code, body)
	}
	dr := mustUnmarshal[DeviceResponse](t, body)
	if dr.Fresh != er.Fresh || dr.Outstanding != 0 {
		t.Fatalf("device response %+v", dr)
	}

	chReq, _ := json.Marshal(ChallengeRequest{ID: alice.ID, K: 16})
	code, body = post(t, c, ts.URL+"/v1/challenge", chReq)
	if code != http.StatusOK {
		t.Fatalf("challenge: %d %s", code, body)
	}
	cr := mustUnmarshal[ChallengeResponse](t, body)
	if len(cr.Pairs) != 16 || cr.ChallengeID == "" {
		t.Fatalf("challenge response %+v", cr)
	}

	// Genuine device, noisy re-measurement (2 ps RMS — the realistic
	// counter-noise level of EXPERIMENTS.md).
	fresh := fleet.Remeasure(alice, 2, 0xA11CE)
	vReq, _ := json.Marshal(VerifyRequest{ID: alice.ID, ChallengeID: cr.ChallengeID,
		Response: respond(t, enrs[0], cr.Pairs, fresh)})
	code, body = post(t, c, ts.URL+"/v1/verify", vReq)
	if code != http.StatusOK {
		t.Fatalf("verify: %d %s", code, body)
	}
	vr := mustUnmarshal[VerifyResponse](t, body)
	if !vr.OK || vr.Bits != 16 || vr.Distance > vr.Limit {
		t.Fatalf("genuine device rejected: %+v", vr)
	}

	// Impostor: mallory answers alice's next challenge with her own
	// silicon (even using alice's stolen configurations).
	code, body = post(t, c, ts.URL+"/v1/challenge", chReq)
	if code != http.StatusOK {
		t.Fatalf("challenge 2: %d %s", code, body)
	}
	cr2 := mustUnmarshal[ChallengeResponse](t, body)
	vReq2, _ := json.Marshal(VerifyRequest{ID: alice.ID, ChallengeID: cr2.ChallengeID,
		Response: respond(t, enrs[0], cr2.Pairs, mallory.Pairs)})
	code, body = post(t, c, ts.URL+"/v1/verify", vReq2)
	if code != http.StatusOK {
		t.Fatalf("impostor verify transport: %d %s", code, body)
	}
	if vr2 := mustUnmarshal[VerifyResponse](t, body); vr2.OK {
		t.Fatalf("impostor accepted: %+v", vr2)
	}

	// The two challenges consumed 32 pairs.
	code, body = get(t, c, ts.URL+"/v1/devices/"+alice.ID)
	if code != http.StatusOK {
		t.Fatalf("device after: %d %s", code, body)
	}
	if dr2 := mustUnmarshal[DeviceResponse](t, body); dr2.Fresh != er.Fresh-32 {
		t.Fatalf("fresh after two challenges: %+v (enrolled fresh %d)", dr2, er.Fresh)
	}
}

// TestReplayedChallengeRejected pins the single-use challenge discipline
// at protocol level: a second verify against the same challenge ID fails
// even with a byte-identical correct response.
func TestReplayedChallengeRejected(t *testing.T) {
	devices, enrs := testFleet(t, 1, 32)
	_, ts := newTestServer(t, StoreOptions{Seed: 7}, ServerOptions{})
	c := ts.Client()
	if code, body := post(t, c, ts.URL+"/v1/enroll", enrollBody(devices[0])); code != http.StatusOK {
		t.Fatalf("enroll: %d %s", code, body)
	}
	chReq, _ := json.Marshal(ChallengeRequest{ID: devices[0].ID, K: 8})
	code, body := post(t, c, ts.URL+"/v1/challenge", chReq)
	if code != http.StatusOK {
		t.Fatalf("challenge: %d %s", code, body)
	}
	cr := mustUnmarshal[ChallengeResponse](t, body)
	vReq, _ := json.Marshal(VerifyRequest{ID: devices[0].ID, ChallengeID: cr.ChallengeID,
		Response: respond(t, enrs[0], cr.Pairs, devices[0].Pairs)})
	if code, body := post(t, c, ts.URL+"/v1/verify", vReq); code != http.StatusOK {
		t.Fatalf("first verify: %d %s", code, body)
	}
	code, body = post(t, c, ts.URL+"/v1/verify", vReq)
	if code != http.StatusNotFound {
		t.Fatalf("replayed verify: got %d %s, want 404", code, body)
	}
	if er := mustUnmarshal[ErrorResponse](t, body); !strings.Contains(er.Error, "challenge") {
		t.Fatalf("replay error %q does not mention the challenge", er.Error)
	}
}

// TestUnknownDevice404 covers the not-found paths of all routes.
func TestUnknownDevice404(t *testing.T) {
	_, ts := newTestServer(t, StoreOptions{}, ServerOptions{})
	c := ts.Client()
	if code, body := get(t, c, ts.URL+"/v1/devices/ghost"); code != http.StatusNotFound {
		t.Fatalf("device: %d %s", code, body)
	}
	chReq, _ := json.Marshal(ChallengeRequest{ID: "ghost", K: 8})
	if code, body := post(t, c, ts.URL+"/v1/challenge", chReq); code != http.StatusNotFound {
		t.Fatalf("challenge: %d %s", code, body)
	}
	vReq, _ := json.Marshal(VerifyRequest{ID: "ghost", ChallengeID: "feedbeef", Response: "0101"})
	if code, body := post(t, c, ts.URL+"/v1/verify", vReq); code != http.StatusNotFound {
		t.Fatalf("verify: %d %s", code, body)
	}
}

// TestMalformedRequests400 covers the validation paths: broken JSON on
// every POST route, bad mode, bad response alphabet, non-positive k.
func TestMalformedRequests400(t *testing.T) {
	devices, _ := testFleet(t, 1, 16)
	_, ts := newTestServer(t, StoreOptions{}, ServerOptions{})
	c := ts.Client()
	if code, body := post(t, c, ts.URL+"/v1/enroll", enrollBody(devices[0])); code != http.StatusOK {
		t.Fatalf("enroll: %d %s", code, body)
	}
	for _, route := range []string{"enroll", "challenge", "verify"} {
		code, body := post(t, c, ts.URL+"/v1/"+route, []byte(`{"id": truncated`))
		if code != http.StatusBadRequest {
			t.Fatalf("%s with broken JSON: %d %s", route, code, body)
		}
		if er := mustUnmarshal[ErrorResponse](t, body); er.Error == "" {
			t.Fatalf("%s error body empty", route)
		}
	}
	badMode, _ := json.Marshal(EnrollRequest{ID: "x", Mode: "case3", Pairs: []PairWire{{Alpha: []float64{1}, Beta: []float64{2}}}})
	if code, body := post(t, c, ts.URL+"/v1/enroll", badMode); code != http.StatusBadRequest {
		t.Fatalf("bad mode: %d %s", code, body)
	}
	badK, _ := json.Marshal(ChallengeRequest{ID: devices[0].ID, K: 0})
	if code, body := post(t, c, ts.URL+"/v1/challenge", badK); code != http.StatusBadRequest {
		t.Fatalf("k=0: %d %s", code, body)
	}
	badBits, _ := json.Marshal(VerifyRequest{ID: devices[0].ID, ChallengeID: "x", Response: "01x1"})
	if code, body := post(t, c, ts.URL+"/v1/verify", badBits); code != http.StatusBadRequest {
		t.Fatalf("bad bits: %d %s", code, body)
	}
}

// TestBodyCapBoundary pins maxBodyBytes on both sides. A challenge or
// verify body of exactly the cap is read whole and answered on its merits
// (404: no such device); one byte more answers 400. A binary enroll body
// over the cap answers 400 too.
func TestBodyCapBoundary(t *testing.T) {
	_, ts := newTestServer(t, StoreOptions{}, ServerOptions{})
	c := ts.Client()
	atCap := bytes.Repeat([]byte(" "), maxBodyBytes)
	copy(atCap, `{"id":"x","k":2}`)
	overCap := append(atCap[:maxBodyBytes:maxBodyBytes], ' ')
	for _, route := range []string{"challenge", "verify"} {
		if code, body := post(t, c, ts.URL+"/v1/"+route, atCap); code != http.StatusNotFound {
			t.Errorf("%s with a body of exactly the cap: %d %s, want 404", route, code, body)
		}
		code, body := post(t, c, ts.URL+"/v1/"+route, overCap)
		if code != http.StatusBadRequest || !bytes.Contains(body, []byte("request body too large")) {
			t.Errorf("%s with a body one byte over the cap: %d %s, want 400 request body too large", route, code, body)
		}
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/enroll", bytes.NewReader(overCap))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", EnrollContentTypeBinary)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("binary enroll body over the cap: %d, want 400", resp.StatusCode)
	}
}

// TestDuplicateEnroll409 pins re-enrollment to 409 Conflict.
func TestDuplicateEnroll409(t *testing.T) {
	devices, _ := testFleet(t, 1, 16)
	_, ts := newTestServer(t, StoreOptions{}, ServerOptions{})
	c := ts.Client()
	if code, _ := post(t, c, ts.URL+"/v1/enroll", enrollBody(devices[0])); code != http.StatusOK {
		t.Fatal("first enroll failed")
	}
	if code, body := post(t, c, ts.URL+"/v1/enroll", enrollBody(devices[0])); code != http.StatusConflict {
		t.Fatalf("duplicate enroll: %d %s", code, body)
	}
}

// TestExhausted409 drains a device's challenge pool and expects 409.
func TestExhausted409(t *testing.T) {
	devices, _ := testFleet(t, 1, 16)
	_, ts := newTestServer(t, StoreOptions{}, ServerOptions{})
	c := ts.Client()
	if code, _ := post(t, c, ts.URL+"/v1/enroll", enrollBody(devices[0])); code != http.StatusOK {
		t.Fatal("enroll failed")
	}
	chReq, _ := json.Marshal(ChallengeRequest{ID: devices[0].ID, K: 12})
	if code, body := post(t, c, ts.URL+"/v1/challenge", chReq); code != http.StatusOK {
		t.Fatalf("first challenge: %d %s", code, body)
	}
	if code, body := post(t, c, ts.URL+"/v1/challenge", chReq); code != http.StatusConflict {
		t.Fatalf("exhausted challenge: %d %s", code, body)
	}
}

// sendAsync sends req in the background. Its status code arrives on the
// returned channel, or -1 on a transport error.
func sendAsync(c *http.Client, req *http.Request) <-chan int {
	code := make(chan int, 1)
	go func() {
		resp, err := c.Do(req)
		if err != nil {
			code <- -1
			return
		}
		resp.Body.Close()
		code <- resp.StatusCode
	}()
	return code
}

// holdRequest POSTs body to url but withholds the body until release is
// called (or the test ends). The handler blocks reading it while holding
// its inflight slot, which keeps the request inside the server.
func holdRequest(t *testing.T, c *http.Client, url string, body []byte) (release func(), code <-chan int) {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, url, pr)
	if err != nil {
		t.Fatal(err)
	}
	// A declared length makes the client send the headers at once, so the
	// server admits the request before any body byte arrives.
	req.ContentLength = int64(len(body))
	req.Header.Set("Content-Type", "application/json")
	code = sendAsync(c, req)
	release = sync.OnceFunc(func() {
		// A failed write means the request already failed; code says so.
		_, _ = pw.Write(body)
		pw.Close()
	})
	t.Cleanup(release)
	return release, code
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// saturate fills a 1-inflight, 1-queued server: a challenge for an unknown
// device holds the inflight slot on its withheld body, and a lookup of the
// same device waits in the queue. After release both answer 404; their
// codes arrive on held.
func saturate(t *testing.T, srv *Server, c *http.Client, base string) (release func(), held []<-chan int) {
	t.Helper()
	release, first := holdRequest(t, c, base+"/v1/challenge", []byte(`{"id":"ghost","k":4}`))
	waitFor(t, "a request in the inflight slot", func() bool { return srv.inflight.Value() == 1 })
	req, err := http.NewRequest(http.MethodGet, base+"/v1/devices/ghost", nil)
	if err != nil {
		t.Fatal(err)
	}
	second := sendAsync(c, req)
	waitFor(t, "a request in the queue", func() bool { return srv.waiting.Load() == 1 })
	return release, []<-chan int{first, second}
}

// TestBackpressure429 saturates a 1-inflight, 1-queued server and expects
// the third concurrent request to bounce with 429 + Retry-After while the
// first two eventually succeed.
func TestBackpressure429(t *testing.T) {
	srv, ts := newTestServer(t, StoreOptions{}, ServerOptions{MaxInflight: 1, MaxQueue: 1})
	c := ts.Client()
	release, held := saturate(t, srv, c, ts.URL)

	resp, err := c.Get(ts.URL + "/v1/devices/ghost")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third concurrent request: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	release()
	for _, code := range held {
		if got := <-code; got != http.StatusNotFound {
			t.Fatalf("held request finished with %d, want 404", got)
		}
	}

	reg := srv.opt.Registry
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `ropuf_authserve_throttled_total{route="device"} 1`) {
		t.Fatalf("throttle counter missing:\n%s", buf.String())
	}
}

// TestGracefulDrain starts a real listener, parks a request in-flight,
// cancels the serve context, and asserts the in-flight request completes
// with 200-class service while the drained server stops accepting new
// connections and Serve returns cleanly.
func TestGracefulDrain(t *testing.T) {
	store, err := Open(StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, ServerOptions{DrainTimeout: 5 * time.Second})

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan net.Addr, 1)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.ListenAndServe(ctx, "127.0.0.1:0", started) }()
	addr := (<-started).String()
	base := "http://" + addr

	devices, _ := testFleet(t, 1, 16)
	if code, body := post(t, http.DefaultClient, base+"/v1/enroll", enrollBody(devices[0])); code != http.StatusOK {
		t.Fatalf("enroll: %d %s", code, body)
	}

	chReq, _ := json.Marshal(ChallengeRequest{ID: devices[0].ID, K: 4})
	release, inflightDone := holdRequest(t, http.DefaultClient, base+"/v1/challenge", chReq)
	waitFor(t, "the challenge in the inflight slot", func() bool { return srv.inflight.Value() == 1 })

	cancel() // SIGINT equivalent: stop accepting, drain in-flight
	// The listener closes promptly; new connections must fail while the
	// in-flight request is still being served.
	deadline := time.Now().Add(2 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after drain started")
		}
		time.Sleep(10 * time.Millisecond)
	}

	select {
	case err := <-serveDone:
		t.Fatalf("Serve returned before in-flight request finished: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	release()
	if code := <-inflightDone; code != http.StatusOK {
		t.Fatalf("in-flight request during drain: %d, want 200", code)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve after drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
}

// TestHealthzOKGolden pins the healthy /healthz contract: 200 with exactly
// {"status":"ok"} (one line). The status string contains "ok" so probes
// that grep the old plain-text body keep passing (DESIGN.md §9).
func TestHealthzOKGolden(t *testing.T) {
	_, ts := newTestServer(t, StoreOptions{}, ServerOptions{})
	code, body := get(t, ts.Client(), ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	if string(body) != "{\"status\":\"ok\"}\n" {
		t.Fatalf("/healthz body = %q, want {\"status\":\"ok\"}", body)
	}
}

// TestHealthzDegradeAndRecover is the SLO acceptance path: a 429 storm
// against a saturated server flips /healthz to 503 with a machine-readable
// error_budget_burn reason, and once the errors age out of the (short)
// window /healthz recovers to 200 — without restarting anything.
func TestHealthzDegradeAndRecover(t *testing.T) {
	srv, ts := newTestServer(t, StoreOptions{}, ServerOptions{
		MaxInflight: 1, MaxQueue: 1,
		SLO:         obs.SLO{Objective: 0.99, Window: 300 * time.Millisecond},
		MaxBurnRate: 10,
	})
	c := ts.Client()
	release, held := saturate(t, srv, c, ts.URL)

	// Storm: with the queue full, every request bounces with 429 instantly.
	for i := 0; i < 20; i++ {
		resp, err := c.Get(ts.URL + "/v1/devices/ghost")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("storm request %d: %d, want 429", i, resp.StatusCode)
		}
	}

	code, body := get(t, c, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz during storm = %d %s, want 503", code, body)
	}
	rep := mustUnmarshal[obs.HealthReport](t, body)
	if rep.Status != "degraded" {
		t.Fatalf("degraded status = %q", rep.Status)
	}
	reasonCodes := map[string]bool{}
	for _, r := range rep.Reasons {
		reasonCodes[r.Code] = true
		if r.Detail == "" {
			t.Fatalf("reason %s without detail", r.Code)
		}
	}
	if !reasonCodes["error_budget_burn"] {
		t.Fatalf("degraded reasons = %+v, want error_budget_burn", rep.Reasons)
	}

	// Release the parked requests and wait out the window: health recovers.
	release()
	for _, code := range held {
		<-code
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body = get(t, c, ts.URL+"/healthz")
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz never recovered: %d %s", code, body)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestTraceparentStitching is the cross-process acceptance path in
// miniature: a request carrying a W3C traceparent header produces server
// spans that join the caller's trace (same trace ID, server root parented
// to the client span), with the store child under the route span, and the
// request log line stamped with the same trace ID.
func TestTraceparentStitching(t *testing.T) {
	ring := obs.NewRingSink(64)
	logBuf := &lockedBuffer{}
	_, ts := newTestServer(t, StoreOptions{}, ServerOptions{
		Tracer: obs.NewTracer(ring, obs.WithService("authserve")),
		Logger: logx.New(logBuf, slog.LevelDebug),
	})

	const (
		traceID      = "4bf92f3577b34da6a3ce929d0e0e4736"
		clientSpanID = "00f067aa0ba902b7"
	)
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/devices/ghost", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceparentHeader, "00-"+traceID+"-"+clientSpanID+"-01")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The span/log emission happens just after the handler writes the
	// response, so wait for the spans to land rather than racing them.
	byName := map[string]obs.SpanEvent{}
	deadline := time.Now().Add(2 * time.Second)
	for len(byName) < 3 {
		byName = map[string]obs.SpanEvent{}
		for _, ev := range ring.Events() {
			byName[ev.Name] = ev
		}
		if len(byName) < 3 {
			if time.Now().After(deadline) {
				t.Fatalf("spans never landed: %v", byName)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	root, ok := byName["authserve.device"]
	if !ok {
		t.Fatalf("no route span emitted: %v", byName)
	}
	if root.TraceID != traceID || root.ParentID != clientSpanID {
		t.Fatalf("server root trace %q parent %q, want %q/%q",
			root.TraceID, root.ParentID, traceID, clientSpanID)
	}
	if root.Service != "authserve" {
		t.Fatalf("service = %q", root.Service)
	}
	if q := byName["authserve.queue"]; q.TraceID != traceID || q.ParentID != root.ID {
		t.Fatalf("queue span %+v not a child of the route span", q)
	}
	if st := byName["store.device"]; st.TraceID != traceID || st.ParentID != root.ID {
		t.Fatalf("store span %+v not a child of the route span", st)
	}

	// The request log line carries the same trace for log↔trace pivoting.
	// It is emitted just after the route span ends, so poll for it too.
	var logged map[string]any
	for logged == nil {
		for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
			if line == "" {
				continue
			}
			var m map[string]any
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				t.Fatalf("log line %q: %v", line, err)
			}
			if m["msg"] == "request" {
				logged = m
			}
		}
		if logged == nil {
			if time.Now().After(deadline) {
				t.Fatalf("no request log record in %q", logBuf.String())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if logged["trace_id"] != traceID {
		t.Fatalf("log trace_id = %v, want %s", logged["trace_id"], traceID)
	}
	if logged["route"] != "device" || logged["code"] != float64(http.StatusNotFound) {
		t.Fatalf("request record = %v", logged)
	}

	// Without a traceparent header the server roots a fresh trace.
	resp2, err := ts.Client().Get(ts.URL + "/v1/devices/ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	fresh := obs.SpanEvent{}
	deadline = time.Now().Add(2 * time.Second)
	for fresh.ID == "" {
		for _, ev := range ring.Events() {
			if ev.Name == "authserve.device" && ev.TraceID != traceID {
				fresh = ev
			}
		}
		if fresh.ID == "" {
			if time.Now().After(deadline) {
				t.Fatal("headerless request span never landed")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if fresh.ParentID != "" {
		t.Fatalf("headerless request did not root a fresh trace: %+v", fresh)
	}
}

// lockedBuffer is an io.Writer safe for concurrent use: the handler's log
// emission can race the test's read when the response flushes first.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestHardenedServeTimeouts pins that the listener path applies the shared
// obs.HardenServer settings (slowloris hardening).
func TestHardenedServeTimeouts(t *testing.T) {
	store, err := Open(StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, ServerOptions{})
	hs := srv.httpServer()
	if hs.ReadHeaderTimeout != 5*time.Second || hs.ReadTimeout != 30*time.Second || hs.IdleTimeout != 2*time.Minute {
		t.Fatalf("timeouts = %v/%v/%v", hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
}

// TestMetricsExposition pins the acceptance-criterion metric: after one
// round trip, /metrics exposes ropuf_authserve_request_duration_seconds
// with route and code labels for every touched route.
func TestMetricsExposition(t *testing.T) {
	devices, enrs := testFleet(t, 1, 32)
	_, ts := newTestServer(t, StoreOptions{Seed: 3}, ServerOptions{})
	c := ts.Client()
	if code, _ := post(t, c, ts.URL+"/v1/enroll", enrollBody(devices[0])); code != http.StatusOK {
		t.Fatal("enroll failed")
	}
	chReq, _ := json.Marshal(ChallengeRequest{ID: devices[0].ID, K: 8})
	_, body := post(t, c, ts.URL+"/v1/challenge", chReq)
	cr := mustUnmarshal[ChallengeResponse](t, body)
	vReq, _ := json.Marshal(VerifyRequest{ID: devices[0].ID, ChallengeID: cr.ChallengeID,
		Response: respond(t, enrs[0], cr.Pairs, devices[0].Pairs)})
	post(t, c, ts.URL+"/v1/verify", vReq)
	get(t, c, ts.URL+"/v1/devices/"+devices[0].ID)

	code, body := get(t, c, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	text := string(body)
	for _, want := range []string{
		`ropuf_authserve_request_duration_seconds_count{route="enroll",code="200"}`,
		`ropuf_authserve_request_duration_seconds_count{route="challenge",code="200"}`,
		`ropuf_authserve_request_duration_seconds_count{route="verify",code="200"}`,
		`ropuf_authserve_request_duration_seconds_count{route="device",code="200"}`,
		`ropuf_authserve_requests_total{route="verify",code="200"} 1`,
		`ropuf_authserve_devices 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestWALStalledHealthAndPersistErrors pins the serving contract around a
// latched log: a mutation whose WAL commit fails (EIO on fsync) answers
// 500 (server fault, retryable) — not the 400 the old default error
// mapping produced — and /healthz flips to 503 with a wal_stalled reason.
// The shard keeps refusing mutations until a restart, so health stays
// 503 for as long, however quiet the server is and however far the
// failure has aged out of the SLO window. A restart on the same data dir
// replays the log: the retried enroll succeeds (no ghost 409) and health
// is back to 200.
func TestWALStalledHealthAndPersistErrors(t *testing.T) {
	const window = 300 * time.Millisecond
	devices, _ := testFleet(t, 2, 8)
	sopt := StoreOptions{Dir: t.TempDir(), Shards: 1, CompactBytes: -1}
	opt := ServerOptions{SLO: obs.SLO{Window: window}}
	srv, ts := newTestServer(t, sopt, opt)
	ff := injectFaults(srv.store.shards[0].wal)
	c := ts.Client()
	if code, body := post(t, c, ts.URL+"/v1/enroll", enrollBody(devices[0])); code != http.StatusOK {
		t.Fatalf("healthy enroll = %d %s", code, body)
	}
	stalled := func(phase string) {
		t.Helper()
		code, body := get(t, c, ts.URL+"/healthz")
		if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "wal_stalled") {
			t.Fatalf("/healthz %s = %d %s, want 503 wal_stalled", phase, code, body)
		}
	}

	ff.fault(&ff.failSync, syscall.EIO)
	code, body := post(t, c, ts.URL+"/v1/enroll", enrollBody(devices[1]))
	if code != http.StatusInternalServerError {
		t.Fatalf("enroll with failing fsync = %d %s, want 500", code, body)
	}
	stalled("after the failed commit")
	time.Sleep(2 * window)
	stalled("two SLO windows later, with no traffic")
	chReq, _ := json.Marshal(ChallengeRequest{ID: devices[0].ID, K: 2})
	if code, body := post(t, c, ts.URL+"/v1/challenge", chReq); code != http.StatusInternalServerError {
		t.Fatalf("challenge on the latched shard = %d %s, want 500", code, body)
	}

	// Restart on the same data dir, with the disk healthy again.
	ts.Close()
	if err := srv.store.Close(); err != nil {
		t.Fatal(err)
	}
	srv, ts = newTestServer(t, sopt, opt)
	defer srv.store.Close()
	c = ts.Client()
	if code, body := post(t, c, ts.URL+"/v1/enroll", enrollBody(devices[1])); code != http.StatusOK {
		t.Fatalf("retried enroll after restart = %d %s, want 200 (no ghost 409)", code, body)
	}
	if code, body := get(t, c, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after restart = %d %s, want 200", code, body)
	}
}

// TestSnapshotFailureHealth drives the snapshot-write failure path: a
// directory squatting on the snapshot's temp path makes SaveAll fail
// before the rename. The failure is counted and /healthz reports
// snapshot_failures; compaction stopped before truncating the WAL, so
// the log keeps every record and a reopen recovers every device. Once the
// obstacle is gone, SaveAll folds the log to nothing.
func TestSnapshotFailureHealth(t *testing.T) {
	devices, _ := testFleet(t, 3, 8)
	dir := t.TempDir()
	sopt := StoreOptions{Dir: dir, Shards: 1, CompactBytes: -1}
	srv, ts := newTestServer(t, sopt, ServerOptions{})
	defer srv.store.Close()
	c := ts.Client()
	for _, d := range devices {
		if code, body := post(t, c, ts.URL+"/v1/enroll", enrollBody(d)); code != http.StatusOK {
			t.Fatalf("enroll %s = %d %s", d.ID, code, body)
		}
	}
	walPath := walPathFor(dir, 0)
	walSize := func() int64 {
		t.Helper()
		fi, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	logged := walSize()
	blocker := filepath.Join(dir, "shard-0000.snap.tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}

	if err := srv.store.SaveAll(); err == nil {
		t.Fatal("SaveAll succeeded with a directory at the snapshot temp path")
	}
	if got := srv.store.SnapshotFailures(); got != 1 {
		t.Fatalf("SnapshotFailures() = %d, want 1", got)
	}
	code, body := get(t, c, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "snapshot_failures") {
		t.Fatalf("/healthz after a failed snapshot = %d %s, want 503 snapshot_failures", code, body)
	}
	if got := walSize(); got != logged || logged == 0 {
		t.Fatalf("WAL is %d bytes after the failed snapshot, want its %d logged bytes", got, logged)
	}
	reopened, err := Open(sopt)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.NumDevices(); got != len(devices) {
		t.Fatalf("reopen after the failed snapshot recovered %d devices, want %d", got, len(devices))
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := srv.store.SaveAll(); err != nil {
		t.Fatalf("SaveAll with the temp path clear: %v", err)
	}
	if got := walSize(); got != 0 || srv.store.WALBacklogBytes() != 0 {
		t.Fatalf("WAL is %d bytes (backlog %d) after SaveAll, want 0", got, srv.store.WALBacklogBytes())
	}
}

// TestStatsEndpoint: the route table mounts the flight recorder at GET
// /v1/stats, so operators get rate/quantile history from the same port
// that serves /metrics.
func TestStatsEndpoint(t *testing.T) {
	devices, _ := testFleet(t, 1, 32)
	srv, ts := newTestServer(t, StoreOptions{Seed: 11}, ServerOptions{})
	c := ts.Client()
	if code, _ := post(t, c, ts.URL+"/v1/enroll", enrollBody(devices[0])); code != http.StatusOK {
		t.Fatal("enroll failed")
	}
	// Handler() alone never starts the tick loop (Serve does); drive the
	// recorder by hand so the test is deterministic.
	srv.recorder.Sample()

	code, body := get(t, c, ts.URL+"/v1/stats?series=ropuf_authserve_devices")
	if code != http.StatusOK {
		t.Fatalf("/v1/stats: %d %s", code, body)
	}
	text := string(body)
	if !strings.Contains(text, `"name":"ropuf_authserve_devices"`) ||
		!strings.Contains(text, ",1]") {
		t.Fatalf("/v1/stats missing enrolled-device history:\n%s", text)
	}
	if code, _ := post(t, c, ts.URL+"/v1/stats", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/stats answered %d, want 405", code)
	}
}

// TestShardDeviceGauges: enrollments surface as per-shard device counts,
// both live and after recovery from disk.
func TestShardDeviceGauges(t *testing.T) {
	devices, _ := testFleet(t, 4, 16)
	dir := t.TempDir()
	// Store and server share one registry, as the serve command wires them.
	shared := obs.NewRegistry()
	sopt := StoreOptions{Seed: 5, Shards: 4, Dir: dir, Registry: shared}
	_, ts := newTestServer(t, sopt, ServerOptions{Registry: shared})
	c := ts.Client()
	for _, d := range devices {
		if code, _ := post(t, c, ts.URL+"/v1/enroll", enrollBody(d)); code != http.StatusOK {
			t.Fatal("enroll failed")
		}
	}
	sum := func(text string) int {
		total := 0
		for _, line := range strings.Split(text, "\n") {
			if !strings.HasPrefix(line, "ropuf_authserve_shard_devices{") {
				continue
			}
			var shard string
			var n int
			if _, err := fmt.Sscanf(line, `ropuf_authserve_shard_devices{shard="%4s"} %d`, &shard, &n); err != nil {
				t.Fatalf("unparseable shard gauge line %q: %v", line, err)
			}
			total += n
		}
		return total
	}
	_, body := get(t, c, ts.URL+"/metrics")
	if got := sum(string(body)); got != len(devices) {
		t.Fatalf("live shard gauges sum to %d, want %d:\n%s", got, len(devices), body)
	}

	// Reopen from disk: the gauges must be rebuilt from recovered state,
	// not start at zero.
	reg := obs.NewRegistry()
	sopt.Registry = reg
	restored, err := Open(sopt)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if got := sum(b.String()); got != len(devices) {
		t.Fatalf("recovered shard gauges sum to %d, want %d:\n%s", got, len(devices), b.String())
	}
}
