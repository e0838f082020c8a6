// Package obs is the dependency-free observability core of the system:
// a metric registry (counters, gauges, fixed-bucket latency histograms with
// label support, Prometheus text exposition, and snapshots in the flight
// recorder's []flight.Family shape),
// a span tracer with JSONL and ring-buffer sinks, and an HTTP helper that
// mounts /metrics, /healthz, and net/http/pprof.
//
// Everything is safe for concurrent use and built so the disabled path is
// free: a nil *Tracer produces nil spans whose methods no-op, and code that
// holds no registry handle pays nothing.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ropuf/internal/obs/flight"
)

// LatencyBuckets is the default histogram layout for wall-clock latencies
// in seconds. It spans 1µs (a single cheap device enrollment) to 10s (a
// large batch stage) with a 1-2.5-5 progression.
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry holds named metric families. The zero value is not usable; call
// NewRegistry. Registration is idempotent: asking for an existing name with
// a matching kind and label signature returns the existing family, while a
// mismatch panics (a programming error, like redeclaring a variable with a
// different type).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with a fixed label signature. series maps the
// joined label values to the live series.
type family struct {
	name    string
	help    string
	kind    flight.Kind
	labels  []string
	buckets []float64 // histograms only; strictly increasing

	fn func() float64 // read-only collector families (CounterFunc/GaugeFunc)

	mu     sync.RWMutex
	series map[string]*series
}

// series is one label-value combination of a family. Counters live in
// count; gauges and histogram sums live in bits (IEEE-754 float64 bits) so
// both update paths stay lock-free.
type series struct {
	labelValues []string
	count       atomic.Int64   // counter value, or histogram observation count
	bits        atomic.Uint64  // gauge value, or histogram sum (float64 bits)
	buckets     []atomic.Int64 // histogram per-bucket (non-cumulative) counts; len = len(family.buckets)+1 for +Inf
}

func (r *Registry) register(name, help string, kind flight.Kind, labels []string, buckets []float64, fn func() float64) *family {
	if name == "" {
		panic("obs: metric with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different signature", name))
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		kind:    kind,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		fn:      fn,
		series:  make(map[string]*series),
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// get returns the series for the given label values, creating it on first
// use.
func (f *family) get(labelValues []string) *series {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(labelValues)))
	}
	key := strings.Join(labelValues, "\x00")
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok = f.series[key]; ok {
		return s
	}
	s = &series{labelValues: append([]string(nil), labelValues...)}
	if f.kind == flight.Histogram {
		s.buckets = make([]atomic.Int64, len(f.buckets)+1)
	}
	f.series[key] = s
	return s
}

// sortedSeries returns the family's series ordered by label values, for
// deterministic exposition.
func (f *family) sortedSeries() []*series {
	f.mu.RLock()
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	f.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].labelValues, out[j].labelValues
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// addFloat accumulates v into an atomic float64 (stored as bits) without
// locks.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// --- counters -------------------------------------------------------------

// Counter is a monotonically increasing count.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.s.count.Add(1) }

// Add adds n, which must be non-negative.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: counter decremented")
	}
	c.s.count.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.s.count.Load() }

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on first
// use. The number of values must match the registered label names.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{s: v.f.get(labelValues)}
}

// NewCounter registers (or fetches) an unlabelled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(name, help, flight.Counter, nil, nil, nil)
	return &Counter{s: f.get(nil)}
}

// NewCounterVec registers (or fetches) a labelled counter family.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, flight.Counter, labelNames, nil, nil)}
}

// NewCounterFunc registers a read-only counter whose value is pulled from fn
// at exposition/snapshot time. Useful for exporting counts that already live
// in another structure (see metrics.FleetCounters).
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	if fn == nil {
		panic("obs: NewCounterFunc with nil fn")
	}
	r.register(name, help, flight.Counter, nil, nil, fn)
}

// --- gauges ---------------------------------------------------------------

// Gauge is a value that can go up and down.
type Gauge struct{ s *series }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.s.bits.Store(math.Float64bits(v)) }

// Add accumulates v (negative to subtract).
func (g *Gauge) Add(v float64) { addFloat(&g.s.bits, v) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.s.bits.Load()) }

// GaugeVec is a gauge family partitioned by labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{s: v.f.get(labelValues)}
}

// NewGauge registers (or fetches) an unlabelled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := r.register(name, help, flight.Gauge, nil, nil, nil)
	return &Gauge{s: f.get(nil)}
}

// NewGaugeVec registers (or fetches) a labelled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, flight.Gauge, labelNames, nil, nil)}
}

// NewGaugeFunc registers a read-only gauge pulled from fn at exposition
// time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	if fn == nil {
		panic("obs: NewGaugeFunc with nil fn")
	}
	r.register(name, help, flight.Gauge, nil, nil, fn)
}

// --- histograms -----------------------------------------------------------

// Histogram is a fixed-bucket distribution. Observations land in the first
// bucket whose upper bound is >= the value (Prometheus "le" semantics);
// values above the last bound land in the implicit +Inf bucket.
type Histogram struct {
	f *family
	s *series
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.f.buckets, v) // first bound >= v
	h.s.buckets[idx].Add(1)
	addFloat(&h.s.bits, v)
	h.s.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.s.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.s.bits.Load()) }

// HistogramVec is a histogram family partitioned by labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{f: v.f, s: v.f.get(labelValues)}
}

// LabelSets lists the label-value tuples with at least one series, sorted.
func (v *HistogramVec) LabelSets() [][]string {
	series := v.f.sortedSeries()
	out := make([][]string, len(series))
	for i, s := range series {
		out[i] = append([]string(nil), s.labelValues...)
	}
	return out
}

// NewHistogram registers (or fetches) an unlabelled histogram. A nil or
// empty buckets slice means LatencyBuckets; bounds must be strictly
// increasing.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, flight.Histogram, nil, checkBuckets(name, buckets), nil)
	return &Histogram{f: f, s: f.get(nil)}
}

// NewHistogramVec registers (or fetches) a labelled histogram family.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, flight.Histogram, labelNames, checkBuckets(name, buckets), nil)}
}

func checkBuckets(name string, buckets []float64) []float64 {
	if len(buckets) == 0 {
		return LatencyBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly increasing at index %d", name, i))
		}
	}
	return buckets
}

// --- snapshot -------------------------------------------------------------

// Snapshot copies the registry's current state, families and series sorted
// by name and label values; histogram buckets are cumulative, +Inf last.
// Under concurrent observation a series' count, sum and buckets may be
// mid-update by a fraction of one observation; each value is read
// atomically.
func (r *Registry) Snapshot() []flight.Family {
	var fams []flight.Family
	for _, f := range r.sortedFamilies() {
		ff := flight.Family{Name: f.name, Kind: f.kind}
		if f.fn != nil {
			ff.Series = []flight.Series{{Labels: map[string]string{}, Value: f.fn()}}
			fams = append(fams, ff)
			continue
		}
		for _, s := range f.sortedSeries() {
			fs := flight.Series{Labels: make(map[string]string, len(f.labels))}
			for i, name := range f.labels {
				fs.Labels[name] = s.labelValues[i]
			}
			switch f.kind {
			case flight.Counter:
				fs.Value = float64(s.count.Load())
			case flight.Gauge:
				fs.Value = math.Float64frombits(s.bits.Load())
			case flight.Histogram:
				fs.Count = s.count.Load()
				fs.Sum = math.Float64frombits(s.bits.Load())
				fs.Buckets = make([]flight.Bucket, len(f.buckets)+1)
				cum := int64(0)
				for i := range s.buckets {
					cum += s.buckets[i].Load()
					bound := math.Inf(1)
					if i < len(f.buckets) {
						bound = f.buckets[i]
					}
					fs.Buckets[i] = flight.Bucket{UpperBound: bound, Count: cum}
				}
			}
			ff.Series = append(ff.Series, fs)
		}
		fams = append(fams, ff)
	}
	return fams
}

func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// --- Prometheus text exposition -------------------------------------------

// WriteProm renders the registry in Prometheus text exposition format
// (version 0.0.4): families sorted by name, series by label values, each
// family preceded by # HELP and # TYPE lines. An empty registry renders
// nothing.
func (r *Registry) WriteProm(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if err := f.writeProm(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeProm(w io.Writer) error {
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
		return err
	}
	if f.fn != nil {
		_, err := fmt.Fprintf(w, "%s %s\n", f.name, formatValue(f.fn()))
		return err
	}
	for _, s := range f.sortedSeries() {
		if err := f.writeSeries(w, s); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeSeries(w io.Writer, s *series) error {
	switch f.kind {
	case flight.Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, f.labelString(s, ""), s.count.Load())
		return err
	case flight.Gauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, f.labelString(s, ""), formatValue(math.Float64frombits(s.bits.Load())))
		return err
	case flight.Histogram:
		cum := int64(0)
		for i := range s.buckets {
			cum += s.buckets[i].Load()
			le := "+Inf"
			if i < len(f.buckets) {
				le = formatValue(f.buckets[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, f.labelString(s, le), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, f.labelString(s, ""), formatValue(math.Float64frombits(s.bits.Load()))); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, f.labelString(s, ""), s.count.Load())
		return err
	}
	return nil
}

// labelString renders {k="v",...}; le, when non-empty, is appended as the
// histogram bucket bound. Returns "" when there are no labels at all.
func (f *family) labelString(s *series, le string) string {
	if len(f.labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range f.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, name, escapeLabel(s.labelValues[i]))
	}
	if le != "" {
		if len(f.labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `le="%s"`, le)
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper applies the Prometheus text-format label escapes — and
// only those. The format defines exactly three escape sequences (\\, \",
// \n); every other byte, including tabs and other control characters, is
// emitted literally. The previous %q-based escaping rendered a tab as \t,
// which a spec-compliant parser must reject (or read as a literal
// backslash-t) — the promtext round-trip property test pins the fix.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

// formatValue renders a float the way Prometheus expects: shortest
// round-trip representation, integral values without an exponent.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
