// Package benchfmt parses `go test -bench` output into the repo's JSON
// perf records. cmd/benchjson pipes benchmark output through it to write
// BENCH_fleet.json, BENCH_measure.json and BENCH_authserve.json, so every
// row of those files comes from a Go benchmark.
//
// A record names the machine it was measured on (its Header) and keeps
// every sample of a -count run, with the count, median, min and max of
// each unit, so a reader can see how far the samples spread.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Header names the machine and toolchain a record was measured with. GOOS,
// GOARCH and CPU are the lines `go test` prints before its benchmarks;
// GOMAXPROCS is the -N suffix of the benchmark names (none means 1); Go is
// the toolchain version, which the output does not carry, so the caller
// fills it in.
type Header struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	Go         string `json:"go,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Sample is one benchmark output line. BytesPerOp and AllocsPerOp are nil
// when the line did not carry the unit (no -benchmem), so a measured zero
// stays distinct from an absent one. Extra holds custom units reported via
// testing.B.ReportMetric (boards/s, bytes/board, …) keyed by unit string;
// JSON maps render with sorted keys, so records still diff cleanly.
type Sample struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Stat summarizes one unit over a benchmark's samples.
type Stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Result is every sample of one benchmark in input order, with each unit
// summarized. BytesPerOp and AllocsPerOp are nil when no sample carried
// the unit.
type Result struct {
	Count       int             `json:"count"`
	NsPerOp     Stat            `json:"ns_per_op"`
	BytesPerOp  *Stat           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *Stat           `json:"allocs_per_op,omitempty"`
	Extra       map[string]Stat `json:"extra,omitempty"`
	Samples     []Sample        `json:"samples"`
}

// Record is one perf record file: the machine it was measured on and the
// results keyed by benchmark name.
type Record struct {
	Header     Header            `json:"header"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// line is a parsed benchmark line.
type line struct {
	sample         Sample
	name           string
	procs          int
	hasProcsSuffix bool
}

// Parse scans benchmark output from r, tees every line to echo, and
// returns the record. A name's -GOMAXPROCS suffix is stripped so keys stay
// stable across machines; the header keeps the value of the first
// benchmark line, and a line run at another GOMAXPROCS keeps its suffix so
// it is not merged with the others.
func Parse(r io.Reader, echo io.Writer) (*Record, error) {
	rec := &Record{Benchmarks: make(map[string]Result)}
	var lines []line
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		text := sc.Text()
		fmt.Fprintln(echo, text)
		for _, field := range []struct {
			prefix string
			dst    *string
		}{{"goos: ", &rec.Header.GOOS}, {"goarch: ", &rec.Header.GOARCH}, {"cpu: ", &rec.Header.CPU}} {
			if v, ok := strings.CutPrefix(text, field.prefix); ok && *field.dst == "" {
				*field.dst = strings.TrimSpace(v)
			}
		}
		if l, ok := parseLine(text); ok {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(lines) > 0 {
		rec.Header.GOMAXPROCS = lines[0].procs
	}
	samples := make(map[string][]line)
	for _, l := range lines {
		name := l.name
		if l.hasProcsSuffix && l.procs != rec.Header.GOMAXPROCS {
			name += "-" + strconv.Itoa(l.procs)
		}
		samples[name] = append(samples[name], l)
	}
	for name, ls := range samples {
		rec.Benchmarks[name] = summarize(ls)
	}
	return rec, nil
}

// parseLine parses one "BenchmarkName-N iterations value unit ..." line.
func parseLine(text string) (line, bool) {
	fields := strings.Fields(text)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return line{}, false
	}
	l := line{name: fields[0], procs: 1}
	if i := strings.LastIndex(l.name, "-"); i > 0 {
		if procs, err := strconv.Atoi(l.name[i+1:]); err == nil {
			l.name, l.procs, l.hasProcsSuffix = l.name[:i], procs, true
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return line{}, false
	}
	l.sample.Iterations = iters
	// Remaining fields come in "<value> <unit>" pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			l.sample.NsPerOp = v
		case "B/op":
			l.sample.BytesPerOp = &v
		case "allocs/op":
			l.sample.AllocsPerOp = &v
		default:
			// Custom B.ReportMetric units. Units contain no digits, so
			// a unit-looking field is never mistaken for a value.
			if strings.IndexFunc(unit, func(r rune) bool { return r >= '0' && r <= '9' }) >= 0 {
				continue
			}
			if l.sample.Extra == nil {
				l.sample.Extra = make(map[string]float64)
			}
			l.sample.Extra[unit] = v
		}
	}
	return l, true
}

// summarize builds one benchmark's Result from its lines.
func summarize(ls []line) Result {
	res := Result{Count: len(ls), Samples: make([]Sample, len(ls))}
	var ns, bytes, allocs []float64
	extra := make(map[string][]float64)
	for i, l := range ls {
		res.Samples[i] = l.sample
		ns = append(ns, l.sample.NsPerOp)
		if l.sample.BytesPerOp != nil {
			bytes = append(bytes, *l.sample.BytesPerOp)
		}
		if l.sample.AllocsPerOp != nil {
			allocs = append(allocs, *l.sample.AllocsPerOp)
		}
		for unit, v := range l.sample.Extra {
			extra[unit] = append(extra[unit], v)
		}
	}
	res.NsPerOp = stat(ns)
	if len(bytes) > 0 {
		s := stat(bytes)
		res.BytesPerOp = &s
	}
	if len(allocs) > 0 {
		s := stat(allocs)
		res.AllocsPerOp = &s
	}
	for unit, vs := range extra {
		if res.Extra == nil {
			res.Extra = make(map[string]Stat)
		}
		res.Extra[unit] = stat(vs)
	}
	return res
}

// stat returns the median, min and max of vs (non-empty); the median of
// an even count is the mean of the middle two.
func stat(vs []float64) Stat {
	vs = slices.Clone(vs)
	slices.Sort(vs)
	n := len(vs)
	median := vs[n/2]
	if n%2 == 0 {
		median = (vs[n/2-1] + vs[n/2]) / 2
	}
	return Stat{Median: median, Min: vs[0], Max: vs[n-1]}
}

// Marshal renders the record with the header on one line and one line per
// benchmark, keys sorted, and a trailing newline, so the file diffs
// cleanly between runs.
func Marshal(rec *Record) ([]byte, error) {
	header, err := json.Marshal(rec.Header)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(rec.Benchmarks))
	for name := range rec.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "{\n  \"header\": %s,\n  \"benchmarks\": {\n", header)
	for i, name := range names {
		entry, err := json.Marshal(rec.Benchmarks[name])
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "    %q: %s", name, entry)
		if i < len(names)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("  }\n}\n")
	return []byte(b.String()), nil
}
