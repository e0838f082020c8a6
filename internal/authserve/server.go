package authserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ropuf/internal/auth"
	"ropuf/internal/bits"
	"ropuf/internal/core"
	"ropuf/internal/obs"
	"ropuf/internal/obs/audit"
	"ropuf/internal/obs/flight"
	"ropuf/internal/obs/logx"
)

// maxBodyBytes bounds request bodies. The largest legitimate body is an
// enrollment (hundreds of pairs × tens of stages × two float vectors);
// 16 MiB leaves generous headroom while capping hostile payloads.
const maxBodyBytes = 16 << 20

// minSLORequests is the in-window request count below which burn rate
// cannot degrade health, damping flapping on trickle traffic.
const minSLORequests = 10

// ServerOptions configures NewServer.
type ServerOptions struct {
	// MaxInflight bounds concurrently executing requests; defaults to 64.
	MaxInflight int
	// MaxQueue bounds requests waiting for an inflight slot; a request
	// arriving with the queue full is answered 429 + Retry-After.
	// Defaults to 256.
	MaxQueue int
	// DrainTimeout bounds graceful shutdown: in-flight requests get this
	// long to finish after Serve's context is cancelled. Defaults to 10s.
	DrainTimeout time.Duration
	// Registry receives the per-route metrics and backs the /metrics
	// endpoint; nil means a private registry (still scrapable).
	Registry *obs.Registry
	// Tracer, when non-nil, emits spans per handled request: a server span
	// (joining the client's trace when the request carried a traceparent
	// header), a queue-wait child, and a store-operation child.
	Tracer *obs.Tracer
	// Logger receives structured request and lifecycle records, stamped
	// with trace/span IDs when tracing is on; nil disables logging.
	Logger *slog.Logger

	// SLO is the availability objective /healthz tracks over the
	// request-duration series: 5xx and 429 responses spend error budget.
	// The zero value means 99% over a 60s rolling window.
	SLO obs.SLO
	// MaxBurnRate is the burn-rate threshold at which /healthz degrades;
	// defaults to 10 (budget burning 10× too fast).
	MaxBurnRate float64

	// Audit, when non-nil, receives the security event stream (enroll,
	// verify-fail, flag, unflag, challenge) — see internal/obs/audit. Nil
	// disables emission; the abuse scorer still runs over the store's
	// TelemetryWindow.
	Audit *audit.Writer
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.MaxInflight <= 0 {
		o.MaxInflight = 64
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 256
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.Logger == nil {
		o.Logger = logx.Nop()
	}
	if o.SLO.Objective == 0 {
		o.SLO.Objective = 0.99
	}
	if o.SLO.Window == 0 {
		o.SLO.Window = time.Minute
	}
	if o.MaxBurnRate <= 0 {
		o.MaxBurnRate = 10
	}
	return o
}

// Server is the PUF authentication HTTP service over a Store.
type Server struct {
	store   *Store
	opt     ServerOptions
	tracer  *obs.Tracer
	log     *slog.Logger
	sem     chan struct{}
	waiting atomic.Int64

	reqDur    *obs.HistogramVec
	reqTotal  *obs.CounterVec
	throttled *obs.CounterVec
	inflight  *obs.Gauge

	burn     *obs.BurnTracker // error-budget burn over the request series
	snapBurn *obs.BurnTracker // snapshot failures over the same window
	degraded atomic.Bool      // last /healthz verdict, for transition logs

	audit  *audit.Writer // security event stream (nil = disabled)
	scorer *abuseScorer  // per-device abuse flags

	// recorder samples the registry into the /v1/stats ring; Serve runs
	// its tick loop for the server's lifetime.
	recorder *flight.Recorder
}

// NewServer wires a Store into an HTTP API.
func NewServer(store *Store, opt ServerOptions) *Server {
	opt = opt.withDefaults()
	reg := opt.Registry
	s := &Server{
		store:  store,
		opt:    opt,
		tracer: opt.Tracer,
		log:    opt.Logger,
		sem:    make(chan struct{}, opt.MaxInflight),
		reqDur: reg.NewHistogramVec("ropuf_authserve_request_duration_seconds",
			"Wall-clock latency of authserve HTTP requests.", nil, "route", "code"),
		reqTotal: reg.NewCounterVec("ropuf_authserve_requests_total",
			"Authserve HTTP requests handled.", "route", "code"),
		throttled: reg.NewCounterVec("ropuf_authserve_throttled_total",
			"Requests rejected with 429 because the bounded queue was full.", "route"),
		inflight: reg.NewGauge("ropuf_authserve_inflight_requests",
			"Requests currently executing."),
		audit: opt.Audit,
	}
	flagGauge := reg.NewGaugeVec("ropuf_authserve_device_flags",
		"Devices currently flagged by the abuse scorer, by reason.", "reason")
	s.scorer = newAbuseScorer(store, opt.Audit, flagGauge)
	reg.NewCounterFunc("ropuf_audit_events_total",
		"Audit events accepted into the async writer.",
		func() float64 { return float64(s.audit.Emitted()) })
	reg.NewCounterFunc("ropuf_audit_dropped_total",
		"Audit events dropped because the writer buffer was full.",
		func() float64 { return float64(s.audit.Dropped()) })
	reg.NewGaugeFunc("ropuf_authserve_devices",
		"Devices currently enrolled in the store.",
		func() float64 { return float64(store.NumDevices()) })
	reg.NewGaugeFunc("ropuf_authserve_queue_depth",
		"Requests waiting for an inflight slot.",
		func() float64 { return float64(s.waiting.Load()) })
	obs.RegisterRuntimeMetrics(reg)
	obs.RegisterBuildInfo(reg)
	s.recorder = flight.NewRecorder(reg.Snapshot, flight.Options{})
	s.burn = obs.NewBurnTracker(opt.SLO, s.sampleRequests)
	s.snapBurn = obs.NewBurnTracker(obs.SLO{Objective: 0.5, Window: opt.SLO.Window},
		func() (float64, float64) {
			f := float64(store.SnapshotFailures())
			return f, f
		})
	return s
}

// sampleRequests sums the request-duration series into cumulative (total,
// errors) counts; 5xx and 429 responses count as errors.
func (s *Server) sampleRequests() (total, errors float64) {
	for _, lv := range s.reqDur.LabelSets() {
		n := float64(s.reqDur.With(lv...).Count())
		total += n
		if code, err := strconv.Atoi(lv[1]); err == nil &&
			(code >= 500 || code == http.StatusTooManyRequests) {
			errors += n
		}
	}
	return total, errors
}

// Health reports the current degradation reasons: error-budget burn over
// the SLO window, a saturated admission queue, recent snapshot-write
// failures, a latched or backlogged WAL, and abusive devices. An empty
// slice means healthy.
func (s *Server) Health() []obs.HealthReason {
	var reasons []obs.HealthReason
	rep := s.burn.Report()
	if rep.Total >= minSLORequests && rep.BurnRate >= s.opt.MaxBurnRate {
		reasons = append(reasons, obs.HealthReason{
			Code: "error_budget_burn",
			Detail: fmt.Sprintf("burn rate %.1f over %s: %.0f of %.0f requests were 5xx/429 (objective %g)",
				rep.BurnRate, rep.Window, rep.Errors, rep.Total, s.opt.SLO.Objective),
			Value: rep.BurnRate,
		})
	}
	if depth := s.waiting.Load(); depth >= int64(s.opt.MaxQueue) {
		reasons = append(reasons, obs.HealthReason{
			Code:   "queue_saturated",
			Detail: fmt.Sprintf("admission queue full: %d waiting of %d allowed", depth, s.opt.MaxQueue),
			Value:  float64(depth),
		})
	}
	if snap := s.snapBurn.Report(); snap.Errors > 0 {
		reasons = append(reasons, obs.HealthReason{
			Code: "snapshot_failures",
			Detail: fmt.Sprintf("%.0f shard snapshot writes failed within %s; enrollments may not be durable",
				snap.Errors, snap.Window),
			Value: snap.Errors,
		})
	}
	// wal_stalled fires on either face of a stuck log: a shard latched
	// by a failed WAL write (its mutations fail until restart, however
	// long ago the failure was) or the compaction backlog running far
	// past the threshold (recovery time growing unbounded).
	if latched := s.store.LatchedShards(); len(latched) > 0 {
		reasons = append(reasons, obs.HealthReason{
			Code: "wal_stalled",
			Detail: fmt.Sprintf("WAL latched broken on shard(s) %s after a failed write; their mutations fail until restart",
				strings.Join(latched, ", ")),
			Value: float64(len(latched)),
		})
	} else if thr := s.store.CompactBytes(); thr > 0 {
		if backlog := s.store.WALBacklogBytes(); backlog >= 4*thr {
			reasons = append(reasons, obs.HealthReason{
				Code: "wal_stalled",
				Detail: fmt.Sprintf("WAL backlog %d bytes is ≥4× the %d-byte compaction threshold; folds are failing",
					backlog, thr),
				Value: float64(backlog),
			})
		}
	}
	if flagged := s.scorer.Flagged(false); len(flagged) > 0 {
		reasons = append(reasons, obs.HealthReason{
			Code:   "device_abuse",
			Detail: healthDetail(flagged),
			Value:  float64(len(flagged)),
		})
	}
	return reasons
}

// healthz serves the degradation-aware health contract (see
// obs.HealthHandler) and logs ok↔degraded transitions.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	reasons := s.Health()
	degraded := len(reasons) > 0
	if s.degraded.Swap(degraded) != degraded {
		if degraded {
			s.log.LogAttrs(r.Context(), slog.LevelWarn, "health degraded",
				slog.String("first_reason", reasons[0].Code),
				slog.Int("reasons", len(reasons)))
		} else {
			s.log.LogAttrs(r.Context(), slog.LevelInfo, "health recovered")
		}
	}
	obs.HealthHandler(func() []obs.HealthReason { return reasons })(w, r)
}

// Handler builds the full route table: the four /v1 API routes plus
// /metrics, the SLO-aware /healthz, and /debug/pprof from the observability
// registry.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/enroll", s.instrument("enroll", s.handleEnroll))
	mux.HandleFunc("POST /v1/challenge", s.instrument("challenge", s.handleChallenge))
	mux.HandleFunc("POST /v1/verify", s.instrument("verify", s.handleVerify))
	mux.HandleFunc("GET /v1/devices/{id}", s.instrument("device", s.handleDevice))
	mux.HandleFunc("GET /v1/audit/flagged", s.instrument("flagged", s.handleFlagged))
	mux.Handle("GET /v1/stats", s.recorder.Handler())
	obsMux := obs.NewMux(s.opt.Registry)
	mux.Handle("/metrics", obsMux)
	mux.HandleFunc("/healthz", s.healthz)
	mux.Handle("/debug/pprof/", obsMux)
	return mux
}

// instrument wraps a handler with bounded-queue admission, the per-route
// latency histogram and request counter, spans (joining the caller's trace
// when the request carries a valid traceparent header), and request logs.
//
// The wrapper is built once per route so the steady-state request pays no
// setup allocations: the span name is pre-concatenated, the throttle
// counter is pre-resolved, and the per-(route, code) metric series are
// cached in a copy-on-write map. The request's working memory (status
// capture, body buffer, response bits, response encoding buffer) comes
// from a pool; see reqScratch.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	spanName := "authserve." + route
	series := newRouteSeries(s, route)
	throttled := s.throttled.With(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		base := r.Context()
		ctx := base
		if sc, ok := obs.Extract(r.Header); ok {
			ctx = obs.ContextWithRemote(ctx, sc)
		}
		ctx, span := s.tracer.Start(ctx, spanName)
		if ctx != base {
			// Only clone the request when something was added: the span, or
			// a remote trace identity the audit stream stamps events with.
			r = r.WithContext(ctx)
		}
		_, qspan := s.tracer.Start(ctx, "authserve.queue")
		admitted := s.acquire(ctx)
		qspan.End()
		if !admitted {
			throttled.Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "server saturated, retry later")
			if span != nil {
				span.SetAttr("code", strconv.Itoa(http.StatusTooManyRequests))
				span.End()
			}
			s.finish(ctx, series, http.StatusTooManyRequests, start)
			return
		}
		s.inflight.Add(1)
		defer func() {
			s.inflight.Add(-1)
			<-s.sem
		}()
		sw := getScratch(w)
		h(sw, r)
		code := sw.code
		putScratch(sw)
		if span != nil {
			span.SetAttr("code", strconv.Itoa(code))
			span.End()
		}
		s.finish(ctx, series, code, start)
	}
}

// codeSeries holds one (route, code) pair's resolved metric handles.
type codeSeries struct {
	dur   *obs.Histogram
	total *obs.Counter
}

// routeSeries caches codeSeries per status code so finish doesn't pay the
// variadic With lookup (and its label-slice allocation) on every request.
// The map grows copy-on-write: codes are created on first use, exactly as
// the uncached path did, so /metrics exposes the same series as before.
type routeSeries struct {
	s     *Server
	route string
	mu    sync.Mutex
	m     atomic.Pointer[map[int]codeSeries]
}

func newRouteSeries(s *Server, route string) *routeSeries {
	rs := &routeSeries{s: s, route: route}
	empty := make(map[int]codeSeries)
	rs.m.Store(&empty)
	return rs
}

func (rs *routeSeries) get(code int) codeSeries {
	if cs, ok := (*rs.m.Load())[code]; ok {
		return cs
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	old := *rs.m.Load()
	if cs, ok := old[code]; ok {
		return cs
	}
	c := strconv.Itoa(code)
	cs := codeSeries{
		dur:   rs.s.reqDur.With(rs.route, c),
		total: rs.s.reqTotal.With(rs.route, c),
	}
	next := make(map[int]codeSeries, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[code] = cs
	rs.m.Store(&next)
	return cs
}

// finish records the request's metrics and its structured log line (Debug
// normally, Warn for 5xx).
func (s *Server) finish(ctx context.Context, series *routeSeries, code int, start time.Time) {
	cs := series.get(code)
	elapsed := time.Since(start)
	cs.dur.Observe(elapsed.Seconds())
	cs.total.Inc()
	level := slog.LevelDebug
	if code >= 500 {
		level = slog.LevelWarn
	}
	// LogAttrs builds its attr slice before the handler can decline the
	// record; checking Enabled first keeps the disabled-logger hot path
	// allocation-free.
	if s.log.Enabled(ctx, level) {
		s.log.LogAttrs(ctx, level, "request",
			slog.String("route", series.route), slog.Int("code", code), slog.Duration("elapsed", elapsed))
	}
}

// acquire admits the request into the inflight window, waiting in the
// bounded queue if the window is full. It returns false when the queue is
// full or the client went away while queued.
func (s *Server) acquire(ctx context.Context) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	if s.waiting.Add(1) > int64(s.opt.MaxQueue) {
		s.waiting.Add(-1)
		return false
	}
	defer s.waiting.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// statusWriter captures the status code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// reqScratch is the pooled per-request working set: the status capture
// every route needs, plus the buffers the verify/challenge paths use to
// run without per-request allocations — request body bytes, the parsed
// response bits, and the response encoding buffer. Handlers reach it by
// downcasting their ResponseWriter; a handler invoked with a plain writer
// (not through instrument) falls back to allocating.
type reqScratch struct {
	statusWriter
	body []byte
	resp bits.Stream
	out  []byte
}

var scratchPool = sync.Pool{New: func() any {
	return &reqScratch{
		body: make([]byte, 0, 4096),
		out:  make([]byte, 0, 1024),
	}
}}

func getScratch(w http.ResponseWriter) *reqScratch {
	sc := scratchPool.Get().(*reqScratch)
	sc.ResponseWriter = w
	sc.code = http.StatusOK
	return sc
}

// scratchKeepBytes bounds pooled buffer retention: a rare oversized body
// (the cap is maxBodyBytes) must not pin megabytes in the pool forever.
const scratchKeepBytes = 1 << 20

func putScratch(sc *reqScratch) {
	sc.ResponseWriter = nil
	if cap(sc.body) > scratchKeepBytes {
		sc.body = nil
	}
	if cap(sc.out) > scratchKeepBytes {
		sc.out = nil
	}
	scratchPool.Put(sc)
}

// readBody reads the whole request body into the scratch buffer (or a
// fresh one without scratch), enforcing the maxBodyBytes cap the way
// http.MaxBytesReader did on the generic path.
func readBody(sc *reqScratch, r *http.Request) ([]byte, error) {
	var buf []byte
	if sc != nil {
		buf = sc.body[:0]
	}
	for {
		if len(buf) >= maxBodyBytes {
			// A body of exactly maxBodyBytes is legal; reject only when
			// more bytes actually follow.
			var probe [1]byte
			n, err := r.Body.Read(probe[:])
			if n > 0 {
				return nil, errors.New("http: request body too large")
			}
			if err == io.EOF {
				return buf, nil
			}
			if err != nil {
				return nil, err
			}
			continue
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		end := cap(buf)
		if end > maxBodyBytes {
			end = maxBodyBytes
		}
		n, err := r.Body.Read(buf[len(buf):end])
		buf = buf[:len(buf)+n]
		if sc != nil {
			sc.body = buf
		}
		switch {
		case err == io.EOF:
			return buf, nil
		case err != nil:
			return nil, err
		}
	}
}

// --- handlers --------------------------------------------------------------

// inStore wraps one store operation in a child span, so traces separate
// queue wait, JSON handling, and sharded-store time.
func (s *Server) inStore(ctx context.Context, op string, fn func() error) error {
	_, span := s.tracer.Start(ctx, "store."+op)
	err := fn()
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	span.End()
	return err
}

// emitAudit stamps an audit event with the request's trace ID and the
// store clock and hands it to the async writer (no-op with auditing off).
func (s *Server) emitAudit(ctx context.Context, event, deviceID, reason string, detail map[string]float64) {
	if s.audit == nil {
		return
	}
	ev := audit.Event{
		TS:       s.store.now(),
		Event:    event,
		DeviceID: deviceID,
		Reason:   reason,
		Detail:   detail,
	}
	if sc, ok := obs.SpanContextOf(ctx); ok {
		ev.TraceID = sc.TraceID
	}
	s.audit.Emit(ev)
}

// verifyFailReason classifies a failed verify for the audit stream.
func verifyFailReason(err error) string {
	switch {
	case err == nil:
		return "mismatch"
	case errors.Is(err, ErrUnknownChallenge):
		return "unknown_challenge"
	case errors.Is(err, auth.ErrUnknownDevice):
		return "unknown_device"
	default:
		return "error"
	}
}

func (s *Server) handleEnroll(w http.ResponseWriter, r *http.Request) {
	// Enrollment is the one route with a legitimately large body; it keeps
	// the generic reflective decoding path, capped the classic way.
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req EnrollRequest
	if r.Header.Get("Content-Type") == EnrollContentTypeBinary {
		if err := decodeEnrollBinary(r.Body, &req); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	} else if !decode(w, r, &req) {
		return
	}
	var mode core.Mode
	switch req.Mode {
	case "case1":
		mode = core.Case1
	case "case2", "":
		mode = core.Case2
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown mode %q (want case1 or case2)", req.Mode))
		return
	}
	pairs := make([]core.Pair, len(req.Pairs))
	for i, p := range req.Pairs {
		pairs[i] = core.Pair{Alpha: p.Alpha, Beta: p.Beta}
	}
	var info DeviceInfo
	err := s.inStore(r.Context(), "enroll", func() (err error) {
		info, err = s.store.Enroll(req.ID, pairs, mode)
		return err
	})
	if err != nil {
		writeStoreError(w, err)
		return
	}
	s.emitAudit(r.Context(), audit.EventEnroll, info.ID, "", map[string]float64{
		"pairs": float64(info.Pairs), "bits": float64(info.Bits), "fresh": float64(info.Fresh),
	})
	writeJSON(w, http.StatusOK, EnrollResponse{ID: info.ID, Pairs: info.Pairs, Bits: info.Bits, Fresh: info.Fresh})
}

// handleChallenge is a hand-coded hot path: pooled body read, the plain
// request fast path and hand encoding of jsonwire.go, and an inline store
// span instead of a closure.
func (s *Server) handleChallenge(w http.ResponseWriter, r *http.Request) {
	sc, _ := w.(*reqScratch)
	body, err := readBody(sc, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "malformed JSON body: "+err.Error())
		return
	}
	id, k, err := parseChallengeRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "malformed JSON body: "+err.Error())
		return
	}
	_, span := s.tracer.Start(r.Context(), "store.challenge")
	nonce, ch, fresh, err := s.store.Challenge(id, k)
	if err != nil && span != nil {
		span.SetAttr("error", err.Error())
	}
	span.End()
	if err != nil {
		writeStoreError(w, err)
		return
	}
	s.emitAudit(r.Context(), audit.EventChallenge, ch.DeviceID, "", map[string]float64{
		"k": float64(len(ch.Pairs)), "fresh_after": float64(fresh),
	})
	writeChallengeJSON(w, sc, ChallengeResponse{ChallengeID: nonce, ID: ch.DeviceID, Pairs: ch.Pairs, Fresh: fresh})
}

// handleVerify is the hottest route and runs allocation-free apart from
// the two identity strings the store may retain: pooled body buffer, a
// plain request parsed straight into a pooled bit stream, pooled
// reference scratch inside the verifier, and a hand-encoded response.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	sc, _ := w.(*reqScratch)
	body, err := readBody(sc, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "malformed JSON body: "+err.Error())
		return
	}
	resp := &bits.Stream{}
	if sc != nil {
		resp = &sc.resp
	}
	resp.Reset()
	id, challengeID, bitsErr, err := parseVerifyRequest(body, resp)
	if err != nil {
		writeError(w, http.StatusBadRequest, "malformed JSON body: "+err.Error())
		return
	}
	if bitsErr != nil {
		writeError(w, http.StatusBadRequest, bitsErr.Error())
		return
	}
	_, span := s.tracer.Start(r.Context(), "store.verify")
	ok, dist, limit, err := s.store.Verify(id, challengeID, resp)
	if err != nil && span != nil {
		span.SetAttr("error", err.Error())
	}
	span.End()
	if err != nil {
		s.emitAudit(r.Context(), audit.EventVerifyFail, id, verifyFailReason(err), nil)
		writeStoreError(w, err)
		return
	}
	if !ok {
		s.emitAudit(r.Context(), audit.EventVerifyFail, id, verifyFailReason(nil), map[string]float64{
			"distance": float64(dist), "limit": float64(limit),
		})
	}
	writeVerifyJSON(w, sc, VerifyResponse{OK: ok, Distance: dist, Limit: limit, Bits: resp.Len()})
}

func (s *Server) handleDevice(w http.ResponseWriter, r *http.Request) {
	var info DeviceInfo
	err := s.inStore(r.Context(), "device", func() (err error) {
		info, err = s.store.Device(r.PathValue("id"))
		return err
	})
	if err != nil {
		writeStoreError(w, err)
		return
	}
	tel := s.store.Telemetry(info.ID)
	remaining := 0.0
	if info.Bits > 0 {
		remaining = float64(info.Fresh) / float64(info.Bits)
	}
	writeJSON(w, http.StatusOK, DeviceResponse{
		ID: info.ID, Pairs: info.Pairs, Bits: info.Bits,
		Fresh: info.Fresh, Outstanding: info.Outstanding,
		PairsRemaining:   remaining,
		ChallengesIssued: tel.ChallengesIssued,
		LastVerifyUnix:   tel.LastVerifyUnix,
	})
}

// handleFlagged serves GET /v1/audit/flagged: the scorer's open flags,
// swept fresh (the force flag bypasses the sweep rate limit so an
// operator poll always sees current evidence).
func (s *Server) handleFlagged(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, FlaggedResponse{
		Window:  s.scorer.window.String(),
		Devices: s.scorer.Flagged(true),
	})
}

// decode parses a JSON body, answering 400 on malformed input.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "malformed JSON body: "+err.Error())
		return false
	}
	return true
}

// writeStoreError maps store/auth errors onto the v1 status-code contract:
// unknown device or challenge → 404, duplicate enrollment or exhausted
// challenge pool → 409, a failed durability write (rolled back, retryable)
// → 500, anything else (validation) → 400.
func writeStoreError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, auth.ErrUnknownDevice), errors.Is(err, ErrUnknownChallenge):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, auth.ErrDuplicateDevice), errors.Is(err, auth.ErrExhausted):
		writeError(w, http.StatusConflict, err.Error())
	case errors.Is(err, ErrPersist):
		writeError(w, http.StatusInternalServerError, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

// jsonCT is the Content-Type header value shared by every response; the
// slice is assigned into the header map directly — it is never mutated,
// and sharing it saves the per-request []string{...} that Header().Set
// builds.
var jsonCT = []string{"application/json"}

func writeJSON(w http.ResponseWriter, code int, v any) {
	writeWire(w, code, appendIndented(nil, v))
}

// writeWire sends a pre-encoded JSON body.
func writeWire(w http.ResponseWriter, code int, body []byte) {
	w.Header()["Content-Type"] = jsonCT
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

func writeVerifyJSON(w http.ResponseWriter, sc *reqScratch, v VerifyResponse) {
	var out []byte
	if sc != nil {
		out = sc.out[:0]
	}
	out = appendVerifyResponse(out, v)
	if sc != nil {
		sc.out = out
	}
	writeWire(w, http.StatusOK, out)
}

func writeChallengeJSON(w http.ResponseWriter, sc *reqScratch, v ChallengeResponse) {
	var out []byte
	if sc != nil {
		out = sc.out[:0]
	}
	out = appendChallengeResponse(out, v)
	if sc != nil {
		sc.out = out
	}
	writeWire(w, http.StatusOK, out)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	// Errors reuse the scratch encoding buffer when the request came
	// through instrument; the rendered bytes are identical to the generic
	// encoder's ErrorResponse output.
	if sc, ok := w.(*reqScratch); ok {
		sc.out = appendErrorResponse(sc.out[:0], msg)
		writeWire(w, code, sc.out)
		return
	}
	writeWire(w, code, appendErrorResponse(nil, msg))
}

// --- serving & graceful drain ----------------------------------------------

// httpServer builds the hardened http.Server Serve runs (split out so tests
// can pin the timeout settings).
func (s *Server) httpServer() *http.Server {
	return obs.HardenServer(&http.Server{Handler: s.Handler()})
}

// Serve runs the HTTP server on ln until ctx is cancelled, then drains:
// the listener stops accepting, in-flight requests get DrainTimeout to
// finish, and the store is snapshotted a final time. It returns nil after
// a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := s.httpServer()
	// The flight recorder ticks for the server's lifetime so /v1/stats has
	// history; it stops with the drain (the ring stays queryable in-process).
	recDone := make(chan struct{})
	go s.recorder.Run(recDone)
	defer close(recDone)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.log.LogAttrs(ctx, slog.LevelInfo, "draining",
		slog.Duration("budget", s.opt.DrainTimeout))
	drainCtx, cancel := context.WithTimeout(context.Background(), s.opt.DrainTimeout)
	defer cancel()
	drainErr := srv.Shutdown(drainCtx)
	if drainErr != nil {
		drainErr = fmt.Errorf("authserve: drain: %w", drainErr)
	}
	saveErr := s.store.SaveAll()
	if err := errors.Join(drainErr, saveErr); err != nil {
		s.log.LogAttrs(ctx, slog.LevelError, "drain failed", slog.Any("error", err))
		return err
	}
	s.log.LogAttrs(ctx, slog.LevelInfo, "drained")
	return nil
}

// ListenAndServe binds addr and calls Serve. The bound address is reported
// through started (useful with ":0"), which is closed after the listener
// is ready.
func (s *Server) ListenAndServe(ctx context.Context, addr string, started chan<- net.Addr) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("authserve: listen %s: %w", addr, err)
	}
	s.log.LogAttrs(ctx, slog.LevelInfo, "listening",
		slog.String("addr", ln.Addr().String()),
		slog.Int("devices", s.store.NumDevices()))
	if started != nil {
		started <- ln.Addr()
		close(started)
	}
	return s.Serve(ctx, ln)
}
