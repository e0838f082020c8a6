package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestEmptyRegistryExposition(t *testing.T) {
	var b strings.Builder
	if err := NewRegistry().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("empty registry rendered %q, want nothing", b.String())
	}
	if snap := NewRegistry().Snapshot(); len(snap) != 0 {
		t.Fatalf("empty registry snapshot has %d families", len(snap))
	}
}

func TestCounterExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("requests_total", "Requests served.")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP requests_total Requests served.\n# TYPE requests_total counter\nrequests_total 5\n"
	if b.String() != want {
		t.Fatalf("exposition:\n%q\nwant:\n%q", b.String(), want)
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	NewRegistry().NewCounter("x", "").Add(-1)
}

func TestLabelledSeriesSortedAndEscaped(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("ops_total", "Ops by kind.", "kind")
	v.With("write").Add(2)
	v.With("read").Add(7)
	v.With(`qu"ote\n`).Inc()
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	// Series sorted by label value, quote and backslash escaped.
	wantOrder := []string{`ops_total{kind="qu\"ote\\n"} 1`, `ops_total{kind="read"} 7`, `ops_total{kind="write"} 2`}
	idx := -1
	for _, w := range wantOrder {
		j := strings.Index(got, w)
		if j < 0 {
			t.Fatalf("exposition missing %q:\n%s", w, got)
		}
		if j < idx {
			t.Fatalf("series out of order in:\n%s", got)
		}
		idx = j
	}
}

// TestLabelEscapingSpec pins the exposition escaping to the three
// sequences the text format defines: \\ for backslash, \" for quote, \n
// for newline. Everything else — tabs included — passes through raw; the
// old %q-based writer emitted \t, which spec-compliant parsers reject.
func TestLabelEscapingSpec(t *testing.T) {
	cases := []struct{ in, want string }{
		{`back\slash`, `back\\slash`},
		{`qu"ote`, `qu\"ote`},
		{"new\nline", `new\nline`},
		{"tab\there", "tab\there"},
		{"héllo-世界", "héllo-世界"},
		{"\x01control", "\x01control"},
	}
	for _, tc := range cases {
		r := NewRegistry()
		r.NewGaugeVec("esc", "", "v").With(tc.in).Set(1)
		var b strings.Builder
		if err := r.WriteProm(&b); err != nil {
			t.Fatal(err)
		}
		want := `esc{v="` + tc.want + `"} 1`
		if !strings.Contains(b.String(), want) {
			t.Fatalf("escaping %q: exposition missing %q:\n%s", tc.in, want, b.String())
		}
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("queue_depth", "")
	g.Set(4.5)
	g.Add(-1.5)
	if g.Value() != 3 {
		t.Fatalf("Value = %g, want 3", g.Value())
	}
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "queue_depth 3\n") {
		t.Fatalf("exposition:\n%s", b.String())
	}
}

func TestRegistrationIdempotentAndMismatchPanics(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("x_total", "help")
	b := r.NewCounter("x_total", "help")
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("re-registration did not return the same series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.NewGauge("x_total", "help")
}

// TestRegistrationSignatureMismatchPanics covers the rest of a family's
// signature: the same name with other label names or other bucket bounds
// is a programming error, not a second family.
func TestRegistrationSignatureMismatchPanics(t *testing.T) {
	cases := []struct {
		name  string
		again func(r *Registry)
	}{
		{"label renamed", func(r *Registry) { r.NewCounterVec("c_total", "", "path") }},
		{"label added", func(r *Registry) { r.NewCounterVec("c_total", "", "route", "code") }},
		{"bucket moved", func(r *Registry) { r.NewHistogram("h", "", []float64{0.1, 2}) }},
		{"bucket added", func(r *Registry) { r.NewHistogram("h", "", []float64{0.1, 1, 10}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			r.NewCounterVec("c_total", "", "route")
			r.NewHistogram("h", "", []float64{0.1, 1})
			defer func() {
				if recover() == nil {
					t.Fatal("re-registration with a different signature did not panic")
				}
			}()
			tc.again(r)
		})
	}
}

// TestHistogramBucketBoundaries pins the "le" semantics: an observation
// exactly on a bound lands in that bound's bucket (le is <=), one just
// above lands in the next, and values beyond the last bound go to +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat", "", []float64{0.1, 0.5, 1})
	h.Observe(0.1)           // exactly on the first bound -> le="0.1"
	h.Observe(0.10000000001) // just above -> le="0.5"
	h.Observe(1)             // exactly on the last finite bound -> le="1"
	h.Observe(2)             // beyond -> +Inf
	h.Observe(-1)            // below everything -> le="0.1"
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.1+0.10000000001+1+2-1; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Sum = %g, want %g", got, want)
	}
	buckets := r.Snapshot()[0].Series[0].Buckets
	wantCum := []int64{2, 3, 4, 5} // cumulative per bound 0.1, 0.5, 1, +Inf
	for i, want := range wantCum {
		if buckets[i].Count != want {
			t.Fatalf("bucket %d cumulative = %d, want %d (buckets %+v)", i, buckets[i].Count, want, buckets)
		}
	}
	if !math.IsInf(buckets[3].UpperBound, 1) {
		t.Fatalf("terminal bound = %g, want +Inf", buckets[3].UpperBound)
	}

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`lat_bucket{le="0.1"} 2`,
		`lat_bucket{le="0.5"} 3`,
		`lat_bucket{le="1"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		"lat_count 5",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

func TestHistogramDefaultBucketsAndVec(t *testing.T) {
	r := NewRegistry()
	v := r.NewHistogramVec("stage_seconds", "", nil, "stage")
	v.With("enroll").Observe(0.002)
	v.With("evaluate").Observe(0.2)
	sets := v.LabelSets()
	if len(sets) != 2 || sets[0][0] != "enroll" || sets[1][0] != "evaluate" {
		t.Fatalf("LabelSets = %v", sets)
	}
	if n := len(r.Snapshot()[0].Series[0].Buckets); n != len(LatencyBuckets)+1 {
		t.Fatalf("default layout has %d buckets, want %d", n, len(LatencyBuckets)+1)
	}
}

func TestHistogramBadBucketsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing buckets did not panic")
		}
	}()
	NewRegistry().NewHistogram("x", "", []float64{1, 1})
}

func TestCounterFuncSnapshotAndExposition(t *testing.T) {
	r := NewRegistry()
	n := 41.0
	r.NewCounterFunc("pulled_total", "Pulled on scrape.", func() float64 { n++; return n })
	if v := r.Snapshot()[0].Series[0].Value; v != 42 {
		t.Fatalf("snapshot value = %g, want 42", v)
	}
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "pulled_total 43\n") {
		t.Fatalf("exposition:\n%s", b.String())
	}
}

func TestGaugeFuncSnapshotAndExposition(t *testing.T) {
	r := NewRegistry()
	depth := -2.5
	r.NewGaugeFunc("depth", "Pulled on scrape.", func() float64 { return depth })
	if v := r.Snapshot()[0].Series[0].Value; v != -2.5 {
		t.Fatalf("snapshot value = %g, want -2.5", v)
	}
	depth = 7
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# TYPE depth gauge\ndepth 7\n") {
		t.Fatalf("exposition:\n%s", b.String())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewGaugeFunc with a nil fn did not panic")
		}
	}()
	r.NewGaugeFunc("other", "", nil)
}

// TestFormatValue pins the exposition's number format: integral values
// without an exponent below 1e15, the shortest %g form otherwise, and the
// spelled-out infinities.
func TestFormatValue(t *testing.T) {
	for v, want := range map[float64]string{
		0:            "0",
		-3:           "-3",
		42:           "42",
		0.25:         "0.25",
		1e14:         "100000000000000",
		1e15:         "1e+15",
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
	} {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
}

// TestConcurrentObserveSnapshot hammers one histogram vec and one counter
// from many goroutines while snapshots and expositions run; the race
// detector (make verify) is the real assertion, totals are the sanity
// check.
func TestConcurrentObserveSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogramVec("lat_seconds", "", []float64{0.001, 0.01, 0.1}, "stage")
	c := r.NewCounter("done_total", "")
	const workers, perWorker = 8, 500
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // concurrent reader
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.Snapshot()
			var b strings.Builder
			_ = r.WriteProm(&b)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stage := []string{"enroll", "evaluate"}[w%2]
			for i := 0; i < perWorker; i++ {
				h.With(stage).Observe(float64(i%200) / 1000)
				c.Inc()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	total := int64(0)
	for _, s := range r.Snapshot() {
		if s.Name != "lat_seconds" {
			continue
		}
		for _, series := range s.Series {
			total += series.Count
		}
	}
	if total != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", total, workers*perWorker)
	}
	if c.Value() != workers*perWorker {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
}
