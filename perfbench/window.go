package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ropuf/internal/obs"
	"ropuf/internal/tracestat"
)

// routes are the API routes whose layers the benchmark reports.
var routes = []string{"challenge", "verify", "enroll"}

// reading is one sample of a process's counters (/proc/<pid>) and the
// host's CPU counters (/proc/stat); a server reading adds its /metrics.
type reading struct {
	proc    procSample
	cpu     cpuTimes
	metrics scrape
}

// readNow samples pid and the host.
func readNow(pid string) (reading, error) {
	ps, err := readProc(pid)
	if err != nil {
		return reading{}, err
	}
	ct, err := readCPUTimes()
	return reading{proc: ps, cpu: ct}, err
}

// readServer samples a running server, /metrics included.
func readServer(ctx context.Context, s *server, c *client) (reading, error) {
	sc, err := s.metrics(ctx, c.http)
	if err != nil {
		return reading{}, err
	}
	rd, err := readNow(s.Pid)
	rd.metrics = sc
	return rd, err
}

// recordProc derives the process and host metrics of the window between
// two readings for ops completed operations.
func recordProc(r *measured, before, after reading, ops int) {
	userMS := after.proc.UserMS - before.proc.UserMS
	sysMS := after.proc.SysMS - before.proc.SysMS
	r.set("cpu_ms_per_op", perOp(userMS+sysMS, ops))
	r.set("proc.user_ms_per_op", perOp(userMS, ops))
	r.set("proc.sys_ms_per_op", perOp(sysMS, ops))
	r.set("proc.write_bytes_per_op", perOp(float64(after.proc.WriteBytes-before.proc.WriteBytes), ops))
	r.set("proc.nvcsw_per_op", perOp(float64(after.proc.NVCSW-before.proc.NVCSW), ops))
	r.set("rss_mb", float64(after.proc.HWMKiB)/1024)
	r.set("host.steal_frac", stealFrac(before.cpu, after.cpu))
}

// recordServer derives every server-side metric of the window between two
// server readings for ops completed operations, and gates on refused or
// failed requests.
func recordServer(r *measured, before, after reading, ops int) {
	recordProc(r, before, after, ops)
	mb, ma := before.metrics, after.metrics

	for _, route := range routes {
		h := histogramDelta(mb, ma, "ropuf_authserve_request_duration_seconds", map[string]string{"route": route})
		r.set("authserve.http."+route+"_p50_us", h.quantile(0.50)*1e6)
		r.set("authserve.http."+route+"_p99_us", h.quantile(0.99)*1e6)
	}
	r.set("authserve.http.throttled", counterDelta(mb, ma, "ropuf_authserve_throttled_total", nil))

	recs := histogramDelta(mb, ma, "ropuf_authserve_wal_group_commit_records", nil)
	r.set("authserve.wal.records_per_commit", recs.mean())
	commit := histogramDelta(mb, ma, "ropuf_authserve_wal_group_commit_duration_seconds", nil)
	r.set("authserve.wal.commit_p50_us", commit.quantile(0.50)*1e6)
	r.set("authserve.wal.commit_p99_us", commit.quantile(0.99)*1e6)
	r.set("authserve.wal.bytes_per_op", perOp(counterDelta(mb, ma, "ropuf_authserve_wal_appended_bytes_total", nil), ops))
	r.set("authserve.wal.failures", counterDelta(mb, ma, "ropuf_authserve_wal_append_failures_total", nil))
	r.set("authserve.wal.compactions", counterDelta(mb, ma, "ropuf_authserve_wal_compactions_total", nil))

	r.set("runtime.alloc_bytes_per_op", perOp(counterDelta(mb, ma, "ropuf_runtime_alloc_bytes_total", nil), ops))
	r.set("runtime.gc_cycles_per_kop", 1000*perOp(counterDelta(mb, ma, "ropuf_runtime_gc_cycles_total", nil), ops))
	r.set("runtime.gc_pause_ms", 1000*counterDelta(mb, ma, "ropuf_runtime_gc_pause_seconds_total", nil))

	if f := ma.family("ropuf_authserve_requests_total"); f != nil {
		for _, s := range f.Series {
			code := s.Labels["code"]
			if code != "429" && !strings.HasPrefix(code, "5") {
				continue
			}
			if n := counterDelta(mb, ma, "ropuf_authserve_requests_total", s.Labels); n > 0 {
				r.gate("server answered %.0f %s requests with %s", n, s.Labels["route"], code)
			}
		}
	}
	if n := r.m["authserve.wal.failures"]; n > 0 {
		r.gate("%.0f WAL appends failed", n)
	}
}

// spanLayers joins the client's spans with the server's -trace-out file and
// sets the critical-path self time of each layer per request, the queue
// wait, and the p50_ms residual: the traced run's p50 minus the summed
// self times per op. Server spans outside the client's traces (start-up
// replay, post-run checks) are left out.
func spanLayers(r *measured, clientSpans []obs.SpanEvent, serverFile string, ops int, p50 time.Duration) error {
	serverSpans, err := tracestat.ReadFile(serverFile)
	if err != nil {
		return err
	}
	traces := map[string]bool{}
	for _, ev := range clientSpans {
		traces[ev.TraceID] = true
	}
	events := append([]obs.SpanEvent(nil), clientSpans...)
	for _, ev := range serverSpans {
		if traces[ev.TraceID] {
			events = append(events, ev)
		}
	}
	rep := tracestat.Analyze(events, tracestat.Options{})
	if rep.StitchedTraces != len(traces) {
		r.gate("only %d of %d client traces joined a server span", rep.StitchedTraces, len(traces))
	}
	self := map[string]time.Duration{}
	hits := map[string]int{}
	var clientSelf, total time.Duration
	clientHits := 0
	for _, p := range rep.CriticalPath {
		self[p.Name], hits[p.Name] = p.Self, p.Hits
		total += p.Self
		if strings.HasPrefix(p.Name, "client.") {
			clientSelf += p.Self
			clientHits += p.Hits
		}
	}
	meanUS := func(name string) float64 {
		if hits[name] == 0 {
			return 0
		}
		return us(self[name]) / float64(hits[name])
	}
	for _, route := range routes {
		r.set("authserve.http.self_us."+route, meanUS("authserve."+route))
		r.set("authserve.store.self_us."+route, meanUS("store."+route))
	}
	r.set("client.self_us", 0)
	if clientHits > 0 {
		r.set("client.self_us", us(clientSelf)/float64(clientHits))
	}
	r.set("authserve.http.queue_wait_p99_us", 0)
	for _, n := range rep.Names {
		if n.Name == "authserve.queue" {
			r.set("authserve.http.queue_wait_p99_us", us(n.P99))
		}
	}
	r.set("residual.p50_ms", ms(p50)-perOp(ms(total), ops))
	return nil
}

// ringSink sizes an in-memory span buffer for a run: spans stay in memory
// and are analysed after the timed phase.
func ringSink(spans int) (*obs.RingSink, *obs.Tracer) {
	sink := obs.NewRingSink(spans)
	return sink, obs.NewTracer(sink, obs.WithService("perfbench"))
}

// checkRing fails the run when the span ring overflowed, which would drop
// client spans from the join.
func checkRing(sink *obs.RingSink) error {
	if got, kept := sink.Total(), len(sink.Events()); got != kept {
		return fmt.Errorf("client span ring kept %d of %d spans", kept, got)
	}
	return nil
}
