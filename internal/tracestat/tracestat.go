// Package tracestat reconstructs distributed traces from span JSONL files
// (the `-trace-out` output of `ropuf serve`, `ropuf loadgen`, and the batch
// commands) and reports where the time went. Files from different processes
// stitch together through the W3C trace IDs the obs tracer assigns: a
// loadgen client span and the authserve server span it caused share one
// trace_id, and the server span's parent_span_id points at the client span
// even though the two live in different files.
//
// The report answers three operator questions:
//
//   - per-span-name latency (count, p50/p90/p99/max) — which operation is
//     slow;
//   - critical-path breakdown — how a trace's end-to-end time divides over
//     the chain of spans that actually gated completion;
//   - structural health — orphan spans, unresolved parents, multi-root
//     traces, and how many traces successfully stitched across processes.
package tracestat

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ropuf/internal/obs"
)

// Options tunes Analyze.
type Options struct {
	// Top bounds the per-name and critical-path tables; <= 0 means all.
	Top int
}

// NameStat is the latency profile of one span name.
type NameStat struct {
	Name    string
	Service string // the (single) service emitting it, or "mixed"
	Count   int
	P50     time.Duration
	P90     time.Duration
	P99     time.Duration
	Max     time.Duration
	Total   time.Duration
}

// PathStat is one span name's aggregate contribution to critical paths:
// Self is the time where this span was the deepest on-path operation.
type PathStat struct {
	Name string
	Self time.Duration
	Hits int
}

// Report is the full analysis result.
type Report struct {
	Files    int
	Spans    int
	Traces   int
	Services []string

	Names        []NameStat // sorted by Total descending
	CriticalPath []PathStat // sorted by Self descending
	// CriticalTotal is the summed root-span duration over all traces (the
	// denominator of the critical-path percentages).
	CriticalTotal time.Duration

	// OrphanSpans have a parent_span_id that resolves nowhere in their
	// trace; MissingParents counts the distinct absent IDs they point at.
	OrphanSpans    int
	MissingParents int
	// MultiRootTraces have more than one span with no parent reference at
	// all (distinct from orphans, whose parent is referenced but absent).
	MultiRootTraces int
	// StitchedTraces contain spans from at least two services;
	// CrossProcessLinks counts child spans whose resolved parent lives in
	// a different service (the traceparent hops that worked).
	StitchedTraces    int
	CrossProcessLinks int
}

// StitchedFraction is StitchedTraces/Traces (0 with no traces).
func (r *Report) StitchedFraction() float64 {
	if r.Traces == 0 {
		return 0
	}
	return float64(r.StitchedTraces) / float64(r.Traces)
}

// ReadFile decodes one span-JSONL file. Spans with no service stamp adopt
// the file's base name, so pre-service trace files still group sensibly.
func ReadFile(path string) ([]obs.SpanEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tracestat: %w", err)
	}
	defer f.Close()
	fallback := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	var events []obs.SpanEvent
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var ev obs.SpanEvent
		if err := json.Unmarshal([]byte(text), &ev); err != nil {
			return nil, fmt.Errorf("tracestat: %s:%d: %w", path, line, err)
		}
		if ev.Service == "" {
			ev.Service = fallback
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tracestat: %s: %w", path, err)
	}
	return events, nil
}

// ReadFiles concatenates ReadFile over every path.
func ReadFiles(paths []string) ([]obs.SpanEvent, error) {
	var all []obs.SpanEvent
	for _, p := range paths {
		events, err := ReadFile(p)
		if err != nil {
			return nil, err
		}
		all = append(all, events...)
	}
	return all, nil
}

// Percentile returns the p-quantile (0 <= p <= 1) of an ascending-sorted
// duration slice, using the same nearest-rank convention as `ropuf
// loadgen`'s latency report: index floor(p*n), clamped to the last element.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Analyze builds the report from (possibly multi-file, multi-process)
// span events. Spans missing a trace ID are counted but excluded from the
// per-trace structure analysis.
func Analyze(events []obs.SpanEvent, opt Options) *Report {
	rep := &Report{Spans: len(events)}

	services := map[string]bool{}
	byName := map[string][]time.Duration{}
	nameService := map[string]string{}
	nameTotal := map[string]time.Duration{}
	byTrace := map[string][]obs.SpanEvent{}
	for _, ev := range events {
		services[ev.Service] = true
		byName[ev.Name] = append(byName[ev.Name], ev.Duration())
		nameTotal[ev.Name] += ev.Duration()
		if svc, seen := nameService[ev.Name]; !seen {
			nameService[ev.Name] = ev.Service
		} else if svc != ev.Service {
			nameService[ev.Name] = "mixed"
		}
		if ev.TraceID != "" {
			byTrace[ev.TraceID] = append(byTrace[ev.TraceID], ev)
		}
	}
	for svc := range services {
		rep.Services = append(rep.Services, svc)
	}
	sort.Strings(rep.Services)
	rep.Traces = len(byTrace)

	for name, durs := range byName {
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		rep.Names = append(rep.Names, NameStat{
			Name:    name,
			Service: nameService[name],
			Count:   len(durs),
			P50:     Percentile(durs, 0.50),
			P90:     Percentile(durs, 0.90),
			P99:     Percentile(durs, 0.99),
			Max:     durs[len(durs)-1],
			Total:   nameTotal[name],
		})
	}
	sort.Slice(rep.Names, func(i, j int) bool {
		if rep.Names[i].Total != rep.Names[j].Total {
			return rep.Names[i].Total > rep.Names[j].Total
		}
		return rep.Names[i].Name < rep.Names[j].Name
	})

	pathSelf := map[string]time.Duration{}
	pathHits := map[string]int{}
	missing := map[string]bool{}
	for _, trace := range byTrace {
		spans := map[string]obs.SpanEvent{}
		children := map[string][]obs.SpanEvent{}
		for _, ev := range trace {
			spans[ev.ID] = ev
		}
		var roots []obs.SpanEvent
		traceServices := map[string]bool{}
		for _, ev := range trace {
			traceServices[ev.Service] = true
			switch {
			case ev.ParentID == "":
				roots = append(roots, ev)
			case spans[ev.ParentID].ID == "":
				// Parent referenced but absent (lost span, or a hop whose
				// file was not provided): orphan, treated as a local root.
				rep.OrphanSpans++
				missing[ev.ParentID] = true
				roots = append(roots, ev)
			default:
				children[ev.ParentID] = append(children[ev.ParentID], ev)
				if spans[ev.ParentID].Service != ev.Service {
					rep.CrossProcessLinks++
				}
			}
		}
		if len(traceServices) > 1 {
			rep.StitchedTraces++
		}
		trueRoots := 0
		for _, r := range roots {
			if r.ParentID == "" {
				trueRoots++
			}
		}
		if trueRoots > 1 {
			rep.MultiRootTraces++
		}
		if len(roots) == 0 {
			continue // cyclic parent references; nothing sane to walk
		}
		// Critical path from the earliest root: at each node descend into
		// the child whose span ends last (the one gating completion),
		// attributing the remainder of the node's time to the node itself.
		root := roots[0]
		for _, r := range roots[1:] {
			if r.Start.Before(root.Start) {
				root = r
			}
		}
		rep.CriticalTotal += root.Duration()
		node := root
		for {
			kids := children[node.ID]
			if len(kids) == 0 {
				pathSelf[node.Name] += node.Duration()
				pathHits[node.Name]++
				break
			}
			gating := kids[0]
			for _, k := range kids[1:] {
				if k.Start.Add(k.Duration()).After(gating.Start.Add(gating.Duration())) {
					gating = k
				}
			}
			self := node.Duration() - gating.Duration()
			if self < 0 {
				self = 0
			}
			pathSelf[node.Name] += self
			pathHits[node.Name]++
			node = gating
		}
	}
	rep.MissingParents = len(missing)
	for name, self := range pathSelf {
		rep.CriticalPath = append(rep.CriticalPath, PathStat{Name: name, Self: self, Hits: pathHits[name]})
	}
	sort.Slice(rep.CriticalPath, func(i, j int) bool {
		if rep.CriticalPath[i].Self != rep.CriticalPath[j].Self {
			return rep.CriticalPath[i].Self > rep.CriticalPath[j].Self
		}
		return rep.CriticalPath[i].Name < rep.CriticalPath[j].Name
	})

	if opt.Top > 0 {
		if len(rep.Names) > opt.Top {
			rep.Names = rep.Names[:opt.Top]
		}
		if len(rep.CriticalPath) > opt.Top {
			rep.CriticalPath = rep.CriticalPath[:opt.Top]
		}
	}
	return rep
}

// WriteText renders the human-readable report.
func (r *Report) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "read %d files: %d spans, %d traces, services %v\n",
		r.Files, r.Spans, r.Traces, r.Services); err != nil {
		return err
	}
	fmt.Fprintf(w, "stitched traces: %d/%d (%.1f%%), cross-process parent links: %d\n",
		r.StitchedTraces, r.Traces, 100*r.StitchedFraction(), r.CrossProcessLinks)
	fmt.Fprintf(w, "orphan spans: %d, unresolved parents: %d, multi-root traces: %d\n",
		r.OrphanSpans, r.MissingParents, r.MultiRootTraces)

	fmt.Fprintf(w, "\nper-span-name latency:\n")
	fmt.Fprintf(w, "  %-32s %-10s %8s %10s %10s %10s %10s\n",
		"name", "service", "count", "p50", "p90", "p99", "max")
	for _, ns := range r.Names {
		fmt.Fprintf(w, "  %-32s %-10s %8d %10s %10s %10s %10s\n",
			ns.Name, ns.Service, ns.Count,
			round(ns.P50), round(ns.P90), round(ns.P99), round(ns.Max))
	}

	fmt.Fprintf(w, "\ncritical-path breakdown (%s total across %d traces):\n",
		round(r.CriticalTotal), r.Traces)
	for _, ps := range r.CriticalPath {
		pct := 0.0
		if r.CriticalTotal > 0 {
			pct = 100 * float64(ps.Self) / float64(r.CriticalTotal)
		}
		fmt.Fprintf(w, "  %-32s %10s  %5.1f%%  (%d traces)\n", ps.Name, round(ps.Self), pct, ps.Hits)
	}
	return nil
}

// round trims durations to microseconds for table alignment.
func round(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
