// Package flight is an in-process time-series flight recorder: it samples
// a metric snapshot on a fixed tick and keeps a bounded ring of derived
// points — counter rates, gauge values, and histogram-bucket-derived
// p50/p90/p99 — queryable as range vectors over HTTP (GET /v1/stats).
//
// The package is deliberately free of dependencies on the rest of the obs
// stack: []Family is the one metric-snapshot shape of the repo.
// obs.Registry.Snapshot returns it (obs.Serve mounts a recorder on it
// without an import cycle), and internal/obs/promtext assembles scraped
// exposition text into it for `ropuf watch`.
//
// Cost model: sampling reads the registry snapshot once per tick (default
// 1s) on a background goroutine; request hot paths are untouched. Memory
// is bounded by Capacity samples × the number of derived series.
package flight

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kind discriminates the metric families a snapshot can hold.
type Kind int

const (
	Counter Kind = iota
	Gauge
	Histogram
)

// String names the kind the way Prometheus exposition does.
func (k Kind) String() string {
	switch k {
	case Counter:
		return "counter"
	case Gauge:
		return "gauge"
	case Histogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Bucket is one cumulative histogram bucket; UpperBound is math.Inf(1)
// for the terminal bucket.
type Bucket struct {
	UpperBound float64
	Count      int64
}

// Series is one label combination of a family. Value carries the counter
// or gauge value; Count, Sum and Buckets are histogram-only (Buckets hold
// cumulative counts, +Inf last).
type Series struct {
	Labels  map[string]string
	Value   float64
	Count   int64
	Sum     float64
	Buckets []Bucket
}

// Family is one named metric family of a snapshot.
type Family struct {
	Name   string
	Kind   Kind
	Series []Series
}

// SnapshotFunc returns the current cumulative metric state. It is called
// once per tick; implementations must be safe for concurrent use.
type SnapshotFunc func() []Family

// Options configures a Recorder. The zero value means a 1s tick and a
// 600-sample ring (ten minutes of history at the default tick).
type Options struct {
	// Interval is the sampling tick; defaults to 1s.
	Interval time.Duration
	// Capacity bounds the ring; defaults to 600 samples. Older samples are
	// overwritten.
	Capacity int
	// Now is swappable for tests; nil means time.Now.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	if o.Capacity <= 0 {
		o.Capacity = 600
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// seriesMeta identifies one derived series: a family-derived name
// (e.g. "ropuf_x_total:rate", "ropuf_x_seconds:p99") plus its label set.
type seriesMeta struct {
	Name   string
	Labels map[string]string
}

// sample is one tick of the ring: a timestamp plus column-indexed values.
// Columns appended after the sample was taken are implicitly NaN (absent).
type sample struct {
	ts   time.Time
	vals []float64
}

// rawState is the previous cumulative reading of one raw series, used to
// derive per-tick rates and bucket deltas.
type rawState struct {
	value   float64 // counter cumulative
	count   int64   // histogram cumulative count
	buckets []int64 // histogram cumulative bucket counts
}

// Recorder samples a SnapshotFunc into a bounded ring of derived points.
type Recorder struct {
	snap SnapshotFunc
	opt  Options

	mu    sync.Mutex
	cols  map[string]int // series key -> column index
	metas []seriesMeta   // column index -> identity
	ring  []sample       // capacity-bounded, ring[head] is the oldest
	head  int
	prev  map[string]rawState // raw-series key -> last cumulative reading
	prevT time.Time           // timestamp of the previous Sample
}

// NewRecorder builds a recorder over snap. Call Run to start the tick
// loop, or Sample directly for manual (deterministic) ticking.
func NewRecorder(snap SnapshotFunc, opt Options) *Recorder {
	return &Recorder{
		snap: snap,
		opt:  opt.withDefaults(),
		cols: make(map[string]int),
		prev: make(map[string]rawState),
	}
}

// Run samples on the configured tick until ctx is done. It takes one
// sample immediately so short-lived processes still record a baseline.
func (r *Recorder) Run(done <-chan struct{}) {
	r.Sample()
	t := time.NewTicker(r.opt.Interval)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			r.Sample()
		}
	}
}

// LabelKey joins a label set deterministically: names sorted, each name
// and value closed by a control byte, so equal sets give equal keys.
func LabelKey(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	names := make([]string, 0, len(labels))
	for k := range labels {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		b.WriteString(k)
		b.WriteByte('\x01')
		b.WriteString(labels[k])
		b.WriteByte('\x02')
	}
	return b.String()
}

// Sample takes one tick: it reads the snapshot, derives rates and
// quantiles against the previous reading, and appends the point set to
// the ring. Safe for concurrent use with Query.
func (r *Recorder) Sample() {
	fams := r.snap()
	ts := r.opt.Now()

	r.mu.Lock()
	defer r.mu.Unlock()
	dt := ts.Sub(r.prevT).Seconds()
	first := r.prevT.IsZero()
	vals := make([]float64, len(r.metas))
	for i := range vals {
		vals[i] = math.NaN()
	}
	set := func(name string, labels map[string]string, lk string, v float64) {
		key := name + "\x00" + lk
		idx, ok := r.cols[key]
		if !ok {
			idx = len(r.metas)
			r.cols[key] = idx
			r.metas = append(r.metas, seriesMeta{Name: name, Labels: labels})
			vals = append(vals, v)
			return
		}
		vals[idx] = v
	}
	next := make(map[string]rawState, len(r.prev))
	for _, f := range fams {
		for _, s := range f.Series {
			lk := LabelKey(s.Labels)
			rawKey := f.Name + "\x00" + lk
			switch f.Kind {
			case Counter:
				next[rawKey] = rawState{value: s.Value}
				if first || dt <= 0 {
					continue
				}
				prev := r.prev[rawKey].value
				if s.Value < prev {
					prev = 0 // counter reset (process restart)
				}
				set(f.Name+":rate", s.Labels, lk, (s.Value-prev)/dt)
			case Gauge:
				set(f.Name, s.Labels, lk, s.Value)
			case Histogram:
				cum := make([]int64, len(s.Buckets))
				for i, b := range s.Buckets {
					cum[i] = b.Count
				}
				next[rawKey] = rawState{count: s.Count, buckets: cum}
				if first || dt <= 0 {
					continue
				}
				prev := r.prev[rawKey]
				prevCount := prev.count
				if s.Count < prevCount || len(prev.buckets) != len(cum) {
					prev = rawState{} // reset or bucket-layout change
					prevCount = 0
				}
				set(f.Name+":rate", s.Labels, lk, float64(s.Count-prevCount)/dt)
				delta := make([]Bucket, len(s.Buckets))
				for i, b := range s.Buckets {
					var p int64
					if i < len(prev.buckets) {
						p = prev.buckets[i]
					}
					delta[i] = Bucket{UpperBound: b.UpperBound, Count: b.Count - p}
				}
				set(f.Name+":p50", s.Labels, lk, Quantile(0.50, delta))
				set(f.Name+":p90", s.Labels, lk, Quantile(0.90, delta))
				set(f.Name+":p99", s.Labels, lk, Quantile(0.99, delta))
			}
		}
	}
	r.prev = next
	r.prevT = ts
	sm := sample{ts: ts, vals: vals}
	if len(r.ring) < r.opt.Capacity {
		r.ring = append(r.ring, sm)
	} else {
		r.ring[r.head] = sm
		r.head = (r.head + 1) % len(r.ring)
	}
}

// Point is one (timestamp, value) reading of a derived series.
type Point struct {
	TS    time.Time
	Value float64
}

// RangeSeries is one derived series' points inside a query range, in
// ascending time order.
type RangeSeries struct {
	Name   string
	Labels map[string]string
	Points []Point
}

// QueryOptions selects a slice of the ring. Series entries match either a
// full derived name ("x_total:rate") or a base family name ("x_total",
// matching every derived series of the family); empty means everything.
// A zero Since/Until leaves that end of the range open.
type QueryOptions struct {
	Series []string
	Since  time.Time
	Until  time.Time
}

// matches reports whether meta's derived name is selected.
func matches(sel []string, name string) bool {
	if len(sel) == 0 {
		return true
	}
	base := name
	if i := strings.LastIndexByte(name, ':'); i >= 0 {
		base = name[:i]
	}
	for _, s := range sel {
		if s == name || s == base {
			return true
		}
	}
	return false
}

// Query returns the selected series' points inside the range, series
// sorted by name then labels, NaN (absent) points skipped. Series with no
// points in range are omitted.
func (r *Recorder) Query(q QueryOptions) []RangeSeries {
	r.mu.Lock()
	defer r.mu.Unlock()
	type col struct {
		meta seriesMeta
		pts  []Point
	}
	selected := make([]col, 0, len(r.metas))
	colIdx := make(map[int]int) // column -> selected index
	for i, m := range r.metas {
		if matches(q.Series, m.Name) {
			colIdx[i] = len(selected)
			selected = append(selected, col{meta: m})
		}
	}
	n := len(r.ring)
	for i := 0; i < n; i++ {
		sm := r.ring[(r.head+i)%n]
		if !q.Since.IsZero() && sm.ts.Before(q.Since) {
			continue
		}
		if !q.Until.IsZero() && sm.ts.After(q.Until) {
			continue
		}
		for ci, si := range colIdx {
			// Absent (NaN) points are skipped; infinities are too, since the
			// JSON rendering has no finite representation for them.
			if ci >= len(sm.vals) || math.IsNaN(sm.vals[ci]) || math.IsInf(sm.vals[ci], 0) {
				continue
			}
			selected[si].pts = append(selected[si].pts, Point{TS: sm.ts, Value: sm.vals[ci]})
		}
	}
	out := make([]RangeSeries, 0, len(selected))
	for _, c := range selected {
		if len(c.pts) == 0 {
			continue
		}
		out = append(out, RangeSeries{Name: c.meta.Name, Labels: c.meta.Labels, Points: c.pts})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return LabelKey(out[i].Labels) < LabelKey(out[j].Labels)
	})
	return out
}
