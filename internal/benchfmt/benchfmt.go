// Package benchfmt parses `go test -bench` output into the repo's JSON
// perf records. cmd/benchjson pipes benchmark output through it to write
// BENCH_fleet.json, BENCH_measure.json and BENCH_authserve.json, so every
// row of those files comes from a Go benchmark.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measurements. Zero-valued fields were absent
// from the input line (e.g. B/op without -benchmem). Extra holds custom
// units reported via testing.B.ReportMetric (boards/s, bytes/board, …)
// keyed by unit string; JSON maps render with sorted keys, so records
// still diff cleanly.
type Result struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Parse scans benchmark lines from r, tees every line to echo, and returns
// the parsed results keyed by benchmark name (the -GOMAXPROCS suffix is
// stripped so keys stay stable across machines).
func Parse(r io.Reader, echo io.Writer) (map[string]Result, error) {
	results := make(map[string]Result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Iterations: iters}
		// Remaining fields come in "<value> <unit>" pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			default:
				// Custom B.ReportMetric units. Units contain no digits, so
				// a unit-looking field is never mistaken for a value.
				if strings.IndexFunc(unit, func(r rune) bool { return r >= '0' && r <= '9' }) >= 0 {
					continue
				}
				if res.Extra == nil {
					res.Extra = make(map[string]float64)
				}
				res.Extra[unit] = v
			}
		}
		results[name] = res
	}
	return results, sc.Err()
}

// Marshal renders the results with sorted keys and a trailing newline so
// the file diffs cleanly between runs.
func Marshal(results map[string]Result) ([]byte, error) {
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("{\n")
	for i, name := range names {
		entry, err := json.Marshal(results[name])
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "  %q: %s", name, entry)
		if i < len(names)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("}\n")
	return []byte(b.String()), nil
}
