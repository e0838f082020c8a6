// Package promtext parses the Prometheus text exposition format (version
// 0.0.4) — the grammar subset internal/obs emits, which is what `ropuf
// watch` scrapes. The repo could write the format but not read it; this
// is the reading half, pinned against the writer by a round-trip property
// test over hostile label values.
//
// Supported grammar (one item per line):
//
//	# HELP <name> <text with \\ and \n escapes>
//	# TYPE <name> counter|gauge|histogram|summary|untyped
//	# <anything else: ignored comment>
//	<name>{<label>="<value with \\ \" \n escapes>",...} <value> [<timestamp>]
//
// Values are Go floats plus the Prometheus specials +Inf, -Inf and NaN.
// Unknown escape sequences in label values are an error (the format
// defines exactly three), as are malformed sample lines — a scrape of a
// non-metrics endpoint should fail loudly, not parse as zero series.
package promtext

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"ropuf/internal/obs/flight"
)

// Sample is one exposed measurement line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Family is one metric family in exposition order: a TYPE declaration
// (or "untyped" when none appeared) plus its samples. Histogram families
// include the _bucket/_sum/_count samples under the base name.
type Family struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// Parse reads exposition text into families, in order of first
// appearance. Samples named <base>_bucket/_sum/_count attach to a
// declared histogram family <base>; everything else forms (or joins) a
// family under its own name.
func Parse(r io.Reader) ([]Family, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var fams []Family
	idx := make(map[string]int) // family name -> fams index
	family := func(name string) *Family {
		if i, ok := idx[name]; ok {
			return &fams[i]
		}
		idx[name] = len(fams)
		fams = append(fams, Family{Name: name, Type: "untyped"})
		return &fams[len(fams)-1]
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, family); err != nil {
				return nil, fmt.Errorf("promtext: line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("promtext: line %d: %w", lineNo, err)
		}
		name := s.Name
		if base, ok := histogramBase(name, idx, fams); ok {
			name = base
		}
		f := family(name)
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("promtext: %w", err)
	}
	return fams, nil
}

// histogramBase maps a _bucket/_sum/_count sample name onto its declared
// histogram family, when one exists.
func histogramBase(name string, idx map[string]int, fams []Family) (string, bool) {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(name, suffix)
		if !ok {
			continue
		}
		if i, ok := idx[base]; ok && fams[i].Type == "histogram" {
			return base, true
		}
	}
	return "", false
}

// parseComment handles # HELP / # TYPE lines; other comments are ignored.
func parseComment(line string, family func(string) *Family) error {
	rest := strings.TrimPrefix(line, "#")
	rest = strings.TrimLeft(rest, " ")
	switch {
	case strings.HasPrefix(rest, "HELP "):
		fields := strings.SplitN(rest[len("HELP "):], " ", 2)
		if fields[0] == "" {
			return fmt.Errorf("HELP line without a metric name")
		}
		f := family(fields[0])
		if len(fields) == 2 {
			f.Help = unescapeHelp(fields[1])
		}
	case strings.HasPrefix(rest, "TYPE "):
		fields := strings.Fields(rest[len("TYPE "):])
		if len(fields) != 2 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		switch fields[1] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[1])
		}
		family(fields[0]).Type = fields[1]
	}
	return nil
}

// unescapeHelp reverses the HELP escaping (\\ and \n only).
func unescapeHelp(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			case 'n':
				b.WriteByte('\n')
				i++
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// parseSample parses one measurement line: name, optional {labels}, a
// value, and an optional (ignored) millisecond timestamp.
func parseSample(line string) (Sample, error) {
	s := Sample{}
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("sample line %q does not start with a metric name", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		labels, tail, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = tail
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("sample %q: want value [timestamp] after the name, got %q", s.Name, rest)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("sample %q: %w", s.Name, err)
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("sample %q: bad timestamp %q", s.Name, fields[1])
		}
	}
	return s, nil
}

func isNameChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

// parseLabels parses a {k="v",...} block (rest begins at '{'), returning
// the labels and the remainder of the line after '}'.
func parseLabels(rest string) (map[string]string, string, error) {
	labels := make(map[string]string)
	i := 1 // past '{'
	for {
		for i < len(rest) && rest[i] == ' ' {
			i++
		}
		if i < len(rest) && rest[i] == '}' {
			return labels, rest[i+1:], nil
		}
		start := i
		for i < len(rest) && isNameChar(rest[i], i == start) {
			i++
		}
		if i == start {
			return nil, "", fmt.Errorf("bad label name at %q", rest[i:])
		}
		name := rest[start:i]
		if i >= len(rest) || rest[i] != '=' {
			return nil, "", fmt.Errorf("label %q not followed by '='", name)
		}
		i++
		value, next, err := parseQuoted(rest[i:])
		if err != nil {
			return nil, "", fmt.Errorf("label %q: %w", name, err)
		}
		labels[name] = value
		i += next
		if i < len(rest) && rest[i] == ',' {
			i++
			continue
		}
		if i < len(rest) && rest[i] == '}' {
			return labels, rest[i+1:], nil
		}
		return nil, "", fmt.Errorf("label %q not followed by ',' or '}'", name)
	}
}

// parseQuoted reads a double-quoted label value honoring exactly the
// three escapes the format defines (\\, \", \n); anything else after a
// backslash is an error. Returns the value and how many input bytes were
// consumed.
func parseQuoted(s string) (string, int, error) {
	if len(s) == 0 || s[0] != '"' {
		return "", 0, fmt.Errorf("value does not start with '\"'")
	}
	var b strings.Builder
	i := 1
	for i < len(s) {
		switch s[i] {
		case '"':
			return b.String(), i + 1, nil
		case '\\':
			if i+1 >= len(s) {
				return "", 0, fmt.Errorf("dangling backslash")
			}
			switch s[i+1] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", 0, fmt.Errorf("unknown escape \\%c", s[i+1])
			}
			i += 2
		default:
			b.WriteByte(s[i])
			i++
		}
	}
	return "", 0, fmt.Errorf("unterminated quoted value")
}

// parseValue parses a sample value: a Go float or the Prometheus
// specials.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN", "nan":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad value %q", s)
	}
	return v, nil
}

// Assemble folds parsed families into the flight snapshot shape: counters
// and gauges carry their sample values, histograms regroup the
// _bucket/_sum/_count samples per label set (minus "le") into cumulative
// buckets sorted by bound. Untyped and summary families pass through as
// gauges so nothing silently disappears. Sample order within a family is
// normalized (sorted by label key) so assembled snapshots compare
// deterministically.
func Assemble(fams []Family) ([]flight.Family, error) {
	out := make([]flight.Family, 0, len(fams))
	for _, f := range fams {
		switch f.Type {
		case "histogram":
			ff, err := assembleHistogram(f)
			if err != nil {
				return nil, err
			}
			out = append(out, ff)
		case "counter":
			out = append(out, assembleFlat(f, flight.Counter))
		default:
			out = append(out, assembleFlat(f, flight.Gauge))
		}
	}
	return out, nil
}

func assembleFlat(f Family, kind flight.Kind) flight.Family {
	ff := flight.Family{Name: f.Name, Kind: kind}
	for _, s := range f.Samples {
		ff.Series = append(ff.Series, flight.Series{Labels: s.Labels, Value: s.Value})
	}
	sortSeries(ff.Series)
	return ff
}

func assembleHistogram(f Family) (flight.Family, error) {
	type hist struct {
		labels  map[string]string
		buckets []flight.Bucket
		sum     float64
		count   int64
	}
	hists := make(map[string]*hist)
	var order []string
	get := func(labels map[string]string) *hist {
		key := flight.LabelKey(labels)
		if h, ok := hists[key]; ok {
			return h
		}
		h := &hist{labels: labels}
		hists[key] = h
		order = append(order, key)
		return h
	}
	for _, s := range f.Samples {
		switch {
		case s.Name == f.Name+"_bucket":
			le, ok := s.Labels["le"]
			if !ok {
				return flight.Family{}, fmt.Errorf("promtext: %s_bucket sample without le label", f.Name)
			}
			bound, err := parseValue(le)
			if err != nil {
				return flight.Family{}, fmt.Errorf("promtext: %s_bucket le=%q: %w", f.Name, le, err)
			}
			rest := make(map[string]string, len(s.Labels)-1)
			for k, v := range s.Labels {
				if k != "le" {
					rest[k] = v
				}
			}
			h := get(rest)
			h.buckets = append(h.buckets, flight.Bucket{UpperBound: bound, Count: int64(s.Value)})
		case s.Name == f.Name+"_sum":
			get(s.Labels).sum = s.Value
		case s.Name == f.Name+"_count":
			get(s.Labels).count = int64(s.Value)
		default:
			return flight.Family{}, fmt.Errorf("promtext: unexpected sample %q in histogram family %q", s.Name, f.Name)
		}
	}
	ff := flight.Family{Name: f.Name, Kind: flight.Histogram}
	for _, key := range order {
		h := hists[key]
		sort.Slice(h.buckets, func(i, j int) bool { return h.buckets[i].UpperBound < h.buckets[j].UpperBound })
		ff.Series = append(ff.Series, flight.Series{
			Labels: h.labels, Count: h.count, Sum: h.sum, Buckets: h.buckets,
		})
	}
	sortSeries(ff.Series)
	return ff, nil
}

func sortSeries(series []flight.Series) {
	sort.Slice(series, func(i, j int) bool {
		return flight.LabelKey(series[i].Labels) < flight.LabelKey(series[j].Labels)
	})
}
