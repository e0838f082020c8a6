package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"ropuf/internal/obs"
	"ropuf/internal/obs/flight"
)

// watchClock is a hand-advanced clock shared by a test's recorders and
// watcher, so rule windows are exact.
type watchClock struct {
	mu sync.Mutex
	t  time.Time
}

func newWatchClock() *watchClock { return &watchClock{t: time.Unix(1700000000, 0).UTC()} }

func (c *watchClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *watchClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// synthTarget builds a virtual watchTarget whose snapshot is read from a
// mutable family list, with a recorder on the given clock.
func synthTarget(clock *watchClock) (*watchTarget, *[]flight.Family) {
	fams := &[]flight.Family{}
	t := &watchTarget{name: "synth", virtual: true}
	t.rec = flight.NewRecorder(func() []flight.Family {
		return *fams
	}, flight.Options{Interval: time.Second, Capacity: 600, Now: clock.Now})
	return t, fams
}

func counterFamily(name string, labels map[string]string, v float64) flight.Family {
	return flight.Family{Name: name, Kind: flight.Counter, Series: []flight.Series{{Labels: labels, Value: v}}}
}

func TestParseSelector(t *testing.T) {
	sel, err := parseSelector(`ropuf_x_total{route="verify",code="200"}`)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Name != "ropuf_x_total" || sel.Labels["route"] != "verify" || sel.Labels["code"] != "200" {
		t.Fatalf("parsed %+v", sel)
	}
	if got := sel.String(); got != `ropuf_x_total{code="200",route="verify"}` {
		t.Fatalf("String() = %s", got)
	}
	if sel, err = parseSelector("plain_name:p99"); err != nil || sel.Name != "plain_name:p99" || sel.Labels != nil {
		t.Fatalf("bare selector: %+v, %v", sel, err)
	}
	for _, bad := range []string{"", "has space", `x{k=v}`, `x{k}`, `x{k="v`} {
		if _, err := parseSelector(bad); err == nil {
			t.Errorf("parseSelector(%q) accepted", bad)
		}
	}
	if !(selector{Name: "x", Labels: map[string]string{"a": "1"}}).matchLabels(map[string]string{"a": "1", "b": "2"}) {
		t.Error("subset match should hold")
	}
	if (selector{Name: "x", Labels: map[string]string{"a": "1"}}).matchLabels(map[string]string{"a": "2"}) {
		t.Error("mismatched value should not match")
	}
}

func TestParseRules(t *testing.T) {
	rules, err := parseRules([]byte(`[
		{"type":"flatline","series":"ropuf_a_total","window":"5s","min_total":10},
		{"type":"rate_drop","series":"ropuf_a_total","pct":50},
		{"type":"burn_rate","series":"ropuf_b_total"},
		{"type":"p99_ceiling","series":"ropuf_lat_seconds","max_seconds":0.25},
		{"type":"scrape_failure","max_failures":2}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 5 {
		t.Fatalf("got %d rules", len(rules))
	}
	if rules[0].window != 5*time.Second {
		t.Errorf("window = %s", rules[0].window)
	}
	if rules[1].window != 10*time.Second {
		t.Errorf("default window = %s", rules[1].window)
	}
	br := rules[2]
	if br.Objective != 0.99 || br.Max != 10 || br.errRe == nil {
		t.Errorf("burn_rate defaults: %+v", br)
	}
	for _, code := range []string{"500", "503", "429", "error"} {
		if !br.errRe.MatchString(code) {
			t.Errorf("default error_codes misses %s", code)
		}
	}
	if br.errRe.MatchString("200") || br.errRe.MatchString("404") {
		t.Error("default error_codes too broad")
	}

	for _, bad := range []string{
		`[{"type":"nope"}]`,
		`[{"type":"flatline"}]`, // missing series
		`[{"type":"flatline","series":"x","window":"bogus"}]`,      // bad window
		`[{"type":"rate_drop","series":"x"}]`,                      // pct out of range
		`[{"type":"p99_ceiling","series":"x"}]`,                    // missing max_seconds
		`[{"type":"burn_rate","series":"x","error_codes":"[("}]`,   // bad regexp
		`[{"type":"burn_rate","series":"x","objective":1.5}]`,      // objective out of range
		`[{"type":"flatline","series":"x","surprise_field":true}]`, // unknown field
	} {
		if _, err := parseRules([]byte(bad)); err == nil {
			t.Errorf("parseRules(%s) accepted", bad)
		}
	}
}

func TestFlatlineRule(t *testing.T) {
	clock := newWatchClock()
	start := clock.Now()
	tgt, fams := synthTarget(clock)
	rules, err := parseRules([]byte(`[{"type":"flatline","series":"ropuf_a_total","window":"5s","min_total":10}]`))
	if err != nil {
		t.Fatal(err)
	}
	r := &rules[0]

	v := 0.0
	for i := 0; i < 20; i++ {
		if i > 0 {
			clock.Advance(time.Second)
		}
		if i < 10 {
			v += 10
		}
		*fams = []flight.Family{counterFamily("ropuf_a_total", nil, v)}
		tgt.rec.Sample()
		detail := r.evaluate(tgt, clock.Now(), start, time.Second)
		switch {
		case i < 5 && detail != "":
			t.Fatalf("tick %d: fired during warmup: %s", i, detail)
		case i >= 5 && i < 10 && detail != "":
			t.Fatalf("tick %d: fired while active: %s", i, detail)
		case i >= 15 && detail == "":
			t.Fatalf("tick %d: flat for %ds, rule silent", i, i-9)
		}
	}
}

func TestRateDropRule(t *testing.T) {
	clock := newWatchClock()
	start := clock.Now()
	tgt, fams := synthTarget(clock)
	rules, err := parseRules([]byte(`[{"type":"rate_drop","series":"ropuf_a_total","pct":50,"window":"10s"}]`))
	if err != nil {
		t.Fatal(err)
	}
	r := &rules[0]

	v := 0.0
	var fired bool
	for i := 0; i < 20; i++ {
		if i > 0 {
			clock.Advance(time.Second)
		}
		if i < 15 {
			v += 10
		} else {
			v += 2
		}
		*fams = []flight.Family{counterFamily("ropuf_a_total", nil, v)}
		tgt.rec.Sample()
		detail := r.evaluate(tgt, clock.Now(), start, time.Second)
		if i < 15 && detail != "" {
			t.Fatalf("tick %d: fired on a steady rate: %s", i, detail)
		}
		if detail != "" {
			fired = true
		}
	}
	if !fired {
		t.Fatal("10/s → 2/s drop never fired a 50%% rate_drop rule")
	}
}

func TestBurnRateRule(t *testing.T) {
	clock := newWatchClock()
	start := clock.Now()
	tgt, fams := synthTarget(clock)
	rules, err := parseRules([]byte(`[{"type":"burn_rate","series":"ropuf_b_total","window":"10s","min_total":50}]`))
	if err != nil {
		t.Fatal(err)
	}
	r := &rules[0]

	okV, errV := 0.0, 0.0
	var fired bool
	for i := 0; i < 15; i++ {
		if i > 0 {
			clock.Advance(time.Second)
		}
		okV += 9
		errV += 1 // 10% errors against a 99% objective: burn rate 10
		*fams = []flight.Family{{Name: "ropuf_b_total", Kind: flight.Counter, Series: []flight.Series{
			{Labels: map[string]string{"code": "200"}, Value: okV},
			{Labels: map[string]string{"code": "500"}, Value: errV},
		}}}
		tgt.rec.Sample()
		if detail := r.evaluate(tgt, clock.Now(), start, time.Second); detail != "" {
			fired = true
		}
	}
	if !fired {
		t.Fatal("10%% error ratio never tripped the burn_rate rule")
	}

	// An all-success stream must stay quiet.
	clock2 := newWatchClock()
	tgt2, fams2 := synthTarget(clock2)
	okV = 0
	for i := 0; i < 15; i++ {
		if i > 0 {
			clock2.Advance(time.Second)
		}
		okV += 10
		*fams2 = []flight.Family{{Name: "ropuf_b_total", Kind: flight.Counter, Series: []flight.Series{
			{Labels: map[string]string{"code": "200"}, Value: okV},
		}}}
		tgt2.rec.Sample()
		if detail := r.evaluate(tgt2, clock2.Now(), clock2.Now().Add(-time.Duration(i)*time.Second), time.Second); detail != "" {
			t.Fatalf("tick %d: burn_rate fired with zero errors: %s", i, detail)
		}
	}
}

func TestP99CeilingRule(t *testing.T) {
	clock := newWatchClock()
	start := clock.Now()
	tgt, fams := synthTarget(clock)
	rules, err := parseRules([]byte(`[
		{"type":"p99_ceiling","series":"ropuf_lat_seconds","window":"5s","max_seconds":0.05},
		{"type":"p99_ceiling","series":"ropuf_lat_seconds","window":"5s","max_seconds":0.2}
	]`))
	if err != nil {
		t.Fatal(err)
	}

	var count int64
	var firedLow, firedHigh bool
	for i := 0; i < 10; i++ {
		if i > 0 {
			clock.Advance(time.Second)
		}
		count += 10 // every observation lands in the (0.01, 0.1] bucket
		*fams = []flight.Family{{Name: "ropuf_lat_seconds", Kind: flight.Histogram, Series: []flight.Series{{
			Count: count, Sum: float64(count) * 0.09,
			Buckets: []flight.Bucket{
				{UpperBound: 0.01, Count: 0},
				{UpperBound: 0.1, Count: count},
				{UpperBound: math.Inf(1), Count: count},
			},
		}}}}
		tgt.rec.Sample()
		if rules[0].evaluate(tgt, clock.Now(), start, time.Second) != "" {
			firedLow = true
		}
		if rules[1].evaluate(tgt, clock.Now(), start, time.Second) != "" {
			firedHigh = true
		}
	}
	if !firedLow {
		t.Error("p99 ~0.1s never exceeded the 0.05s ceiling")
	}
	if firedHigh {
		t.Error("p99 ~0.1s fired a 0.2s ceiling")
	}
}

func TestScrapeFailureRule(t *testing.T) {
	clock := newWatchClock()
	start := clock.Now().Add(-time.Minute) // past warmup
	tgt := &watchTarget{name: "t"}
	rules, err := parseRules([]byte(`[{"type":"scrape_failure","window":"5s","max_failures":1}]`))
	if err != nil {
		t.Fatal(err)
	}
	r := &rules[0]

	now := clock.Now()
	tgt.failTS = []time.Time{now.Add(-20 * time.Second)} // outside the window
	if detail := r.evaluate(tgt, now, start, time.Second); detail != "" {
		t.Fatalf("old failure fired: %s", detail)
	}
	tgt.failTS = append(tgt.failTS, now.Add(-2*time.Second), now.Add(-1*time.Second))
	if detail := r.evaluate(tgt, now, start, time.Second); detail == "" {
		t.Fatal("2 in-window failures with max_failures 1 stayed quiet")
	}
	virt := &watchTarget{name: "fleet", virtual: true, failTS: tgt.failTS}
	if detail := r.evaluate(virt, now, start, time.Second); detail != "" {
		t.Fatalf("scrape_failure fired on the virtual fleet target: %s", detail)
	}
}

func TestAggregate(t *testing.T) {
	mk := func(counter float64, gauge float64, bucketLow int64) []flight.Family {
		return []flight.Family{
			{Name: "ropuf_c_total", Kind: flight.Counter, Series: []flight.Series{
				{Labels: map[string]string{"route": "verify"}, Value: counter},
			}},
			{Name: "ropuf_g", Kind: flight.Gauge, Series: []flight.Series{{Value: gauge}}},
			{Name: "ropuf_h_seconds", Kind: flight.Histogram, Series: []flight.Series{{
				Count: bucketLow + 5, Sum: 1,
				Buckets: []flight.Bucket{
					{UpperBound: 0.1, Count: bucketLow},
					{UpperBound: math.Inf(1), Count: bucketLow + 5},
				},
			}}},
		}
	}
	t1 := &watchTarget{name: "a", latest: mk(100, 3, 10)}
	t2 := &watchTarget{name: "b", latest: mk(50, 4, 20)}
	out := aggregate([]*watchTarget{t1, t2})
	if len(out) != 3 {
		t.Fatalf("got %d families: %+v", len(out), out)
	}
	byName := map[string]flight.Family{}
	for _, f := range out {
		byName[f.Name] = f
	}
	if v := byName["ropuf_c_total"].Series[0].Value; v != 150 {
		t.Errorf("counter sum = %g, want 150", v)
	}
	if v := byName["ropuf_g"].Series[0].Value; v != 7 {
		t.Errorf("gauge sum = %g, want 7", v)
	}
	h := byName["ropuf_h_seconds"].Series[0]
	if h.Count != 40 || h.Buckets[0].Count != 30 || h.Buckets[1].Count != 40 {
		t.Errorf("histogram merge: count=%d buckets=%+v", h.Count, h.Buckets)
	}
	// Label sets aggregate separately.
	t3 := &watchTarget{name: "c", latest: []flight.Family{
		{Name: "ropuf_c_total", Kind: flight.Counter, Series: []flight.Series{
			{Labels: map[string]string{"route": "enroll"}, Value: 7},
		}},
	}}
	out = aggregate([]*watchTarget{t1, t3})
	for _, f := range out {
		if f.Name != "ropuf_c_total" {
			continue
		}
		if len(f.Series) != 2 {
			t.Fatalf("want 2 label sets, got %+v", f.Series)
		}
	}
}

// startMetricsServer serves a registry's exposition and its flight
// recorder's /v1/stats, like a real serve process.
func startMetricsServer(t *testing.T, reg *obs.Registry, clock *watchClock) (*httptest.Server, *flight.Recorder) {
	t.Helper()
	rec := flight.NewRecorder(reg.Snapshot, flight.Options{Interval: time.Second, Now: clock.Now})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if err := reg.WriteProm(w); err != nil {
			t.Errorf("WriteProm: %v", err)
		}
	})
	mux.Handle("GET /v1/stats", rec.Handler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, rec
}

func TestWatcherEndToEnd(t *testing.T) {
	clock := newWatchClock()
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	ctrA := regA.NewCounterVec("ropuf_e2e_requests_total", "requests", "code")
	ctrB := regB.NewCounterVec("ropuf_e2e_requests_total", "requests", "code")
	srvA, recA := startMetricsServer(t, regA, clock)
	srvB, _ := startMetricsServer(t, regB, clock)

	rules, err := parseRules([]byte(`[
		{"type":"flatline","series":"ropuf_e2e_requests_total","window":"3s","min_total":5},
		{"type":"scrape_failure","window":"3s"}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	rateSel, _ := parseSelector("ropuf_e2e_requests_total")
	w := newWatcher([]string{srvA.URL, srvB.URL}, watcherOptions{
		Interval: time.Second,
		Timeout:  2 * time.Second,
		Capacity: 64,
		Rules:    rules,
		RateSel:  rateSel,
		Now:      clock.Now,
	})
	if w.fleet == nil {
		t.Fatal("two targets must produce a fleet aggregate")
	}
	var log bytes.Buffer
	w.log = &log

	ctx := context.Background()
	for i := 0; i < 8; i++ {
		ctrA.With("200").Add(10)
		ctrB.With("200").Add(20)
		recA.Sample() // keep the server-side recorder in step for /v1/stats
		w.pollOnce(ctx)
		if got := w.newAnomalies(); len(got) != 0 {
			t.Fatalf("round %d: anomalies on a healthy fleet: %v", i, got)
		}
		clock.Advance(time.Second)
	}
	if ratio := w.successRatio(); ratio != 1 {
		t.Fatalf("success ratio %g on healthy servers", ratio)
	}

	// Per-target and fleet rates: A at 10/s, B at 20/s, fleet at 30/s.
	wantRates := map[string]float64{"fleet": 30}
	wantRates[w.targets[0].name] = 10
	wantRates[w.targets[1].name] = 20
	for _, tgt := range w.allTargets() {
		got := latestSum(rateSel, tgt.rec, ":rate")
		if want := wantRates[tgt.name]; math.Abs(got-want) > 0.01 {
			t.Errorf("%s rate = %g, want %g", tgt.name, got, want)
		}
	}

	// The server's own /v1/stats view must agree with the scrape-derived rate.
	sv, err := fetchStatsRate(ctx, w.client, strings.TrimSuffix(srvA.URL, "/"), rateSel)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sv-10) > 0.01 {
		t.Errorf("server-side rate = %g, want 10", sv)
	}

	// The JSONL log covers every target (including the fleet) each round.
	lines := strings.Split(strings.TrimSuffix(log.String(), "\n"), "\n")
	if len(lines) != 8*3 {
		t.Fatalf("JSONL log has %d lines, want %d", len(lines), 8*3)
	}
	var rec watchRecord
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatalf("bad JSONL line: %v", err)
	}
	if !rec.OK || rec.TS == 0 || len(rec.Series) == 0 {
		t.Errorf("last record: %+v", rec)
	}

	// A report renders without panicking and names every target.
	var report bytes.Buffer
	w.report(ctx, &report)
	for _, tgt := range w.allTargets() {
		if !strings.Contains(report.String(), tgt.name) {
			t.Errorf("report is missing target %s:\n%s", tgt.name, report.String())
		}
	}

	// Kill target A: scrape_failure fires first (window 3s, zero tolerated),
	// then flatline once the last good scrape ages out.
	srvA.Close()
	var fired []string
	for i := 0; i < 6; i++ {
		ctrB.With("200").Add(20)
		w.pollOnce(ctx)
		fired = append(fired, w.newAnomalies()...)
		clock.Advance(time.Second)
	}
	joined := strings.Join(fired, "\n")
	if !strings.Contains(joined, "scrape_failure") {
		t.Errorf("dead target produced no scrape_failure firing:\n%s", joined)
	}
	if !strings.Contains(joined, "flatline") {
		t.Errorf("dead target produced no flatline firing:\n%s", joined)
	}
	if w.anomalyCount() == 0 {
		t.Error("anomalyCount is zero after firings")
	}
	if w.successRatio() >= 1 {
		t.Error("success ratio did not drop after killing a target")
	}
	// Firings are deduplicated: a still-firing rule does not re-announce.
	w.pollOnce(ctx)
	w.pollOnce(ctx)
	if again := w.newAnomalies(); len(again) != 0 {
		t.Errorf("still-firing rules re-announced: %v", again)
	}
}

func TestWatchTableWriter(t *testing.T) {
	var buf bytes.Buffer
	tw := newTableWriter(&buf)
	tw.row("target", "scrapes", "ok%")
	tw.row("localhost:9000", "12", "100.0")
	tw.flush()
	want := "" +
		"target          scrapes  ok%\n" +
		"localhost:9000  12       100.0\n"
	if buf.String() != want {
		t.Errorf("table:\n%q\nwant\n%q", buf.String(), want)
	}
}

func TestWatchRunNonZeroExit(t *testing.T) {
	// The command path itself: a target that dies mid-run must make runWatch
	// return an error (the CI contract).
	reg := obs.NewRegistry()
	ctr := reg.NewCounter("ropuf_e2e_run_total", "n")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		ctr.Add(5)
		_ = reg.WriteProm(w)
	})
	srv := httptest.NewServer(mux)
	rulesFile := t.TempDir() + "/rules.json"
	if err := os.WriteFile(rulesFile, []byte(`[{"type":"scrape_failure","window":"1s"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(400 * time.Millisecond)
		srv.Close()
	}()
	err := runWatch(context.Background(), []string{
		"-interval", "100ms", "-duration", "1200ms", "-report-every", "0",
		"-rules", rulesFile, srv.URL,
	})
	if err == nil {
		t.Fatal("runWatch returned nil after its target died")
	}
	if !strings.Contains(err.Error(), "anomaly") {
		t.Fatalf("error %q does not mention anomalies", err)
	}
}
