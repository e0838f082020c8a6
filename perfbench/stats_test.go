package main

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

func msDurations(vals ...int) []time.Duration {
	out := make([]time.Duration, len(vals))
	for i, v := range vals {
		out[i] = time.Duration(v) * time.Millisecond
	}
	return out
}

func seq(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(n-i) * time.Millisecond // unsorted on purpose
	}
	return out
}

func TestSummarizeTailRule(t *testing.T) {
	for _, tc := range []struct {
		name            string
		lat             []time.Duration
		failed          int
		p50, tail       time.Duration
		tailPct         float64
		beyond, samples int
	}{
		// At 1,000 ops and more the tail is p99: rank floor(0.99·n).
		{name: "p99", lat: seq(2000), p50: 1001 * time.Millisecond, tail: 1981 * time.Millisecond,
			tailPct: 99, beyond: 19, samples: 2000},
		// Below 1,000 ops it is the highest percentile with ten samples
		// beyond it: rank n-11.
		{name: "short run", lat: seq(50), p50: 26 * time.Millisecond, tail: 40 * time.Millisecond,
			tailPct: 78, beyond: 10, samples: 50},
		// Failed ops rank beyond every latency: ten failures take the ten
		// slots above the tail, which lands on the slowest success.
		{name: "ten failures", lat: seq(40), failed: 10, p50: 26 * time.Millisecond, tail: 40 * time.Millisecond,
			tailPct: 78, beyond: 10, samples: 50},
		// An eleventh failure pushes the tail itself past every limit.
		{name: "eleven failures", lat: seq(39), failed: 11, p50: 26 * time.Millisecond, tail: failedLatency,
			tailPct: 78, beyond: 10, samples: 50},
		// Failures count in the median too.
		{name: "failed median", lat: msDurations(1, 2), failed: 3, p50: failedLatency, tail: 1 * time.Millisecond,
			tailPct: 0, beyond: 4, samples: 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := summarize(tc.lat, tc.failed)
			if s.P50 != tc.p50 || s.Tail != tc.tail || math.Abs(s.TailPct-tc.tailPct) > 1e-9 || s.Beyond != tc.beyond || s.N != tc.samples {
				t.Errorf("summarize = %+v, want p50 %v tail %v at p%v with %d beyond of %d",
					s, tc.p50, tc.tail, tc.tailPct, tc.beyond, tc.samples)
			}
		})
	}
}

func TestOpenLoopMeasuresFromSchedule(t *testing.T) {
	const interval = 5 * time.Millisecond
	const stall = 60 * time.Millisecond
	// One connection: op 0 stalls, so ops 1..3 wait behind it. Their
	// latency must include that wait, counted from when each was due.
	r := openLoop(context.Background(), 4, interval, 1, func(i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if r.Failed != 0 || len(r.Lat) != 4 || len(r.Late) != 4 {
		t.Fatalf("got %d latencies, %d late, %d failed", len(r.Lat), len(r.Late), r.Failed)
	}
	for i, lat := range r.Lat {
		// Op i was due at i·interval and finished no earlier than the stall.
		if min := stall - time.Duration(i)*interval; lat < min {
			t.Errorf("op %d latency %v, want at least %v (the stall it queued behind)", i, lat, min)
		}
	}
	// The generator itself kept to the schedule: the stall delayed the
	// ops, not their release.
	for i, late := range r.Late {
		if late > stall/2 {
			t.Errorf("op %d released %v late; the generator must not wait for busy workers", i, late)
		}
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	boom := errors.New("boom")
	r := openLoop(context.Background(), 5, time.Millisecond, 2, func(i int) error {
		if i%2 == 1 {
			return boom
		}
		return nil
	})
	if r.Failed != 2 || len(r.Lat) != 3 || len(r.Errs) != 2 {
		t.Fatalf("failed %d, latencies %d, errs %d; want 2, 3, 2", r.Failed, len(r.Lat), len(r.Errs))
	}
}

func TestParseProcStat(t *testing.T) {
	// The command field may hold spaces and parentheses.
	line := "4242 (ropuf (x) serve) S 1 4242 4242 0 -1 4194560 1234 0 5 0 " +
		"1520 37 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615\n"
	user, sys, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if user != 15200 || sys != 370 {
		t.Errorf("utime/stime = %v/%v ms, want 15200/370", user, sys)
	}
	if _, _, err := parseProcStat("4242 ropuf S 1"); err == nil {
		t.Error("a line without the command field must not parse")
	}
	if _, _, err := parseProcStat("4242 (ropuf) S 1 2 3"); err == nil {
		t.Error("a truncated line must not parse")
	}
}

func TestParseKeyed(t *testing.T) {
	io := "rchar: 3980\nwchar: 120\nsyscr: 9\nsyscw: 2\nread_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n"
	if v, err := parseKeyed(io, "write_bytes"); err != nil || v != 4096 {
		t.Errorf("write_bytes = %d, %v; want 4096", v, err)
	}
	status := "Name:\tropuf\nVmPeak:\t  800000 kB\nVmHWM:\t   72340 kB\nvoluntary_ctxt_switches:\t150\nnonvoluntary_ctxt_switches:\t7\n"
	for key, want := range map[string]int64{"VmHWM": 72340, "voluntary_ctxt_switches": 150, "nonvoluntary_ctxt_switches": 7} {
		if v, err := parseKeyed(status, key); err != nil || v != want {
			t.Errorf("%s = %d, %v; want %d", key, v, err, want)
		}
	}
	if _, err := parseKeyed(status, "VmSwap"); err == nil {
		t.Error("a missing key must be an error")
	}
}

func TestStealFrac(t *testing.T) {
	before, err := parseCPUTimes("cpu  1000 0 200 5000 10 0 5 100 0 0\ncpu0 500 0 100 2500 5 0 2 50 0 0\n")
	if err != nil {
		t.Fatal(err)
	}
	// 400 more ticks in all, 100 of them stolen (guest fields ignored:
	// they are already inside user and nice).
	after, err := parseCPUTimes("cpu  1150 0 250 5100 10 0 5 200 77 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := stealFrac(before, after); got != 0.25 {
		t.Errorf("steal share = %v, want 0.25", got)
	}
	if got := stealFrac(after, after); got != 0 {
		t.Errorf("steal share over no time = %v, want 0", got)
	}
	if _, err := parseCPUTimes("intr 1 2 3\n"); err == nil {
		t.Error("a /proc/stat without the cpu line must not parse")
	}
}

const scrapeBefore = `# HELP ropuf_authserve_request_duration_seconds Wall-clock latency.
# TYPE ropuf_authserve_request_duration_seconds histogram
ropuf_authserve_request_duration_seconds_bucket{route="verify",code="200",le="0.001"} 80
ropuf_authserve_request_duration_seconds_bucket{route="verify",code="200",le="0.01"} 100
ropuf_authserve_request_duration_seconds_bucket{route="verify",code="200",le="+Inf"} 100
ropuf_authserve_request_duration_seconds_sum{route="verify",code="200"} 0.1
ropuf_authserve_request_duration_seconds_count{route="verify",code="200"} 100
# TYPE ropuf_authserve_wal_appended_bytes_total counter
ropuf_authserve_wal_appended_bytes_total 8700
`

const scrapeAfter = `# TYPE ropuf_authserve_request_duration_seconds histogram
ropuf_authserve_request_duration_seconds_bucket{route="verify",code="200",le="0.001"} 80
ropuf_authserve_request_duration_seconds_bucket{route="verify",code="200",le="0.01"} 300
ropuf_authserve_request_duration_seconds_bucket{route="verify",code="200",le="+Inf"} 300
ropuf_authserve_request_duration_seconds_sum{route="verify",code="200"} 1.1
ropuf_authserve_request_duration_seconds_count{route="verify",code="200"} 300
# TYPE ropuf_authserve_wal_appended_bytes_total counter
ropuf_authserve_wal_appended_bytes_total 26100
`

// scrapeRestarted is a scrape of a process that restarted after
// scrapeBefore: every cumulative count started again from zero.
const scrapeRestarted = `# TYPE ropuf_authserve_request_duration_seconds histogram
ropuf_authserve_request_duration_seconds_bucket{route="verify",code="200",le="0.001"} 40
ropuf_authserve_request_duration_seconds_bucket{route="verify",code="200",le="0.01"} 50
ropuf_authserve_request_duration_seconds_bucket{route="verify",code="200",le="+Inf"} 50
ropuf_authserve_request_duration_seconds_sum{route="verify",code="200"} 0.05
ropuf_authserve_request_duration_seconds_count{route="verify",code="200"} 50
# TYPE ropuf_authserve_wal_appended_bytes_total counter
ropuf_authserve_wal_appended_bytes_total 4350
`

func TestHistogramDeltaAcrossRestart(t *testing.T) {
	parse := func(text string) scrape {
		t.Helper()
		s, err := parseScrape(text)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	before, after, restarted := parse(scrapeBefore), parse(scrapeAfter), parse(scrapeRestarted)
	verify := map[string]string{"route": "verify"}
	const name = "ropuf_authserve_request_duration_seconds"

	// Same process: the window holds the 200 requests between the scrapes,
	// all in the (1ms, 10ms] bucket.
	d := histogramDelta(before, after, name, verify)
	if d.Count != 200 || math.Abs(d.Sum-1.0) > 1e-12 {
		t.Errorf("window count/sum = %d/%v, want 200/1", d.Count, d.Sum)
	}
	if q := d.quantile(0.5); math.Abs(q-0.0055) > 1e-12 {
		t.Errorf("window p50 = %v, want 0.0055 (mid-bucket)", q)
	}
	if got := counterDelta(before, after, "ropuf_authserve_wal_appended_bytes_total", nil); got != 17400 {
		t.Errorf("counter delta = %v, want 17400", got)
	}

	// Across a restart the later reading is the whole window.
	d = histogramDelta(before, restarted, name, verify)
	if d.Count != 50 || d.Sum != 0.05 || d.Buckets[0].Count != 40 || d.Buckets[1].Count != 50 {
		t.Errorf("restart window = %+v, want the restarted reading (50 requests, 40 under 1ms)", d)
	}
	if got := counterDelta(before, restarted, "ropuf_authserve_wal_appended_bytes_total", nil); got != 4350 {
		t.Errorf("counter delta across restart = %v, want 4350", got)
	}

	// A route with no requests reads 0, not NaN.
	if q := histogramDelta(before, after, name, map[string]string{"route": "enroll"}).quantile(0.99); q != 0 {
		t.Errorf("idle route p99 = %v, want 0", q)
	}
}
