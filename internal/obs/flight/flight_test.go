package flight

import (
	"math"
	"sync"
	"testing"
	"time"
)

// fakeSource is a mutable snapshot the tests tick against a fake clock.
type fakeSource struct {
	mu   sync.Mutex
	fams []Family
}

func (f *fakeSource) set(fams []Family) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fams = fams
}

func (f *fakeSource) snapshot() []Family {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fams
}

// clock is a manually stepped time source.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *clock { return &clock{t: time.Unix(1700000000, 0).UTC()} }

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func counterFam(name string, v float64) Family {
	return Family{Name: name, Kind: Counter, Series: []Series{{Value: v}}}
}

func gaugeFam(name string, v float64) Family {
	return Family{Name: name, Kind: Gauge, Series: []Series{{Value: v}}}
}

func histFam(name string, buckets []Bucket, count int64, sum float64) Family {
	return Family{Name: name, Kind: Histogram, Series: []Series{
		{Count: count, Sum: sum, Buckets: buckets},
	}}
}

func TestRecorderCounterRate(t *testing.T) {
	src := &fakeSource{}
	clk := newClock()
	rec := NewRecorder(src.snapshot, Options{Now: clk.now})

	src.set([]Family{counterFam("reqs_total", 0)})
	rec.Sample() // baseline: no rate yet
	for i := 1; i <= 5; i++ {
		clk.advance(time.Second)
		src.set([]Family{counterFam("reqs_total", float64(10*i))})
		rec.Sample()
	}
	out := rec.Query(QueryOptions{Series: []string{"reqs_total:rate"}})
	if len(out) != 1 {
		t.Fatalf("got %d series, want 1", len(out))
	}
	if len(out[0].Points) != 5 {
		t.Fatalf("got %d points, want 5 (baseline sample has no rate)", len(out[0].Points))
	}
	for _, p := range out[0].Points {
		if p.Value != 10 {
			t.Fatalf("rate point = %g, want 10", p.Value)
		}
	}
}

func TestRecorderCounterReset(t *testing.T) {
	src := &fakeSource{}
	clk := newClock()
	rec := NewRecorder(src.snapshot, Options{Now: clk.now})

	src.set([]Family{counterFam("reqs_total", 100)})
	rec.Sample()
	clk.advance(time.Second)
	// Process restart: cumulative value fell. The rate must be the new
	// cumulative over the tick, never negative.
	src.set([]Family{counterFam("reqs_total", 7)})
	rec.Sample()
	out := rec.Query(QueryOptions{Series: []string{"reqs_total:rate"}})
	if len(out) != 1 || len(out[0].Points) != 1 {
		t.Fatalf("unexpected result shape: %+v", out)
	}
	if got := out[0].Points[0].Value; got != 7 {
		t.Fatalf("post-reset rate = %g, want 7", got)
	}
}

func TestRecorderGaugeAndHistogram(t *testing.T) {
	src := &fakeSource{}
	clk := newClock()
	rec := NewRecorder(src.snapshot, Options{Now: clk.now})

	bkts := func(c1, c2, cInf int64) []Bucket {
		return []Bucket{{0.01, c1}, {0.1, c2}, {math.Inf(1), cInf}}
	}
	src.set([]Family{
		gaugeFam("depth", 3),
		histFam("lat_seconds", bkts(0, 0, 0), 0, 0),
	})
	rec.Sample()
	clk.advance(2 * time.Second)
	// 10 observations land under 10ms, 10 more between 10ms and 100ms.
	src.set([]Family{
		gaugeFam("depth", 5),
		histFam("lat_seconds", bkts(10, 20, 20), 20, 1),
	})
	rec.Sample()

	if out := rec.Query(QueryOptions{Series: []string{"depth"}}); len(out) != 1 || len(out[0].Points) != 2 {
		t.Fatalf("gauge series shape wrong: %+v", out)
	} else if out[0].Points[1].Value != 5 {
		t.Fatalf("gauge point = %g, want 5", out[0].Points[1].Value)
	}
	out := rec.Query(QueryOptions{Series: []string{"lat_seconds"}})
	byName := map[string][]Point{}
	for _, s := range out {
		byName[s.Name] = s.Points
	}
	if rate := byName["lat_seconds:rate"]; len(rate) != 1 || rate[0].Value != 10 {
		t.Fatalf("hist rate = %+v, want one point of 10/s", rate)
	}
	// p50 at rank 10 of 20: exactly the first bucket's full width.
	if p50 := byName["lat_seconds:p50"]; len(p50) != 1 || math.Abs(p50[0].Value-0.01) > 1e-12 {
		t.Fatalf("p50 = %+v, want 0.01", p50)
	}
	if p99 := byName["lat_seconds:p99"]; len(p99) != 1 || p99[0].Value <= 0.01 || p99[0].Value > 0.1 {
		t.Fatalf("p99 = %+v, want within (0.01, 0.1]", p99)
	}
	// A quiet tick: rate 0, quantiles absent (NaN skipped).
	clk.advance(time.Second)
	rec.Sample()
	out = rec.Query(QueryOptions{Series: []string{"lat_seconds:p50"}})
	if len(out) != 1 || len(out[0].Points) != 1 {
		t.Fatalf("quiet tick must not add a quantile point: %+v", out)
	}
	out = rec.Query(QueryOptions{Series: []string{"lat_seconds:rate"}})
	if len(out) != 1 || len(out[0].Points) != 2 || out[0].Points[1].Value != 0 {
		t.Fatalf("quiet tick rate: %+v, want trailing 0", out)
	}
}

func TestRecorderRingEviction(t *testing.T) {
	src := &fakeSource{}
	clk := newClock()
	rec := NewRecorder(src.snapshot, Options{Now: clk.now, Capacity: 4})
	for i := 0; i < 10; i++ {
		src.set([]Family{gaugeFam("g", float64(i))})
		rec.Sample()
		clk.advance(time.Second)
	}
	out := rec.Query(QueryOptions{})
	if len(out) != 1 {
		t.Fatalf("got %d series, want 1", len(out))
	}
	pts := out[0].Points
	if len(pts) != 4 {
		t.Fatalf("ring kept %d points, want capacity 4", len(pts))
	}
	for i, p := range pts {
		if want := float64(6 + i); p.Value != want {
			t.Fatalf("point %d = %g, want %g (oldest evicted first)", i, p.Value, want)
		}
		if i > 0 && !pts[i-1].TS.Before(p.TS) {
			t.Fatalf("points out of order at %d", i)
		}
	}
}

func TestRecorderQueryRange(t *testing.T) {
	src := &fakeSource{}
	clk := newClock()
	start := clk.now()
	rec := NewRecorder(src.snapshot, Options{Now: clk.now})
	for i := 0; i < 10; i++ {
		src.set([]Family{gaugeFam("g", float64(i))})
		rec.Sample()
		clk.advance(time.Second)
	}
	out := rec.Query(QueryOptions{Since: start.Add(5 * time.Second), Until: start.Add(7 * time.Second)})
	if len(out) != 1 {
		t.Fatalf("got %d series, want 1", len(out))
	}
	if len(out[0].Points) != 3 { // samples at +5, +6, +7
		t.Fatalf("range query returned %d points, want 3", len(out[0].Points))
	}
	if out[0].Points[0].Value != 5 || out[0].Points[2].Value != 7 {
		t.Fatalf("range edges wrong: %+v", out[0].Points)
	}
}

func TestRecorderSeriesSelector(t *testing.T) {
	src := &fakeSource{}
	clk := newClock()
	rec := NewRecorder(src.snapshot, Options{Now: clk.now})
	src.set([]Family{
		counterFam("a_total", 1),
		gaugeFam("b", 2),
		histFam("h_seconds", []Bucket{{1, 1}, {math.Inf(1), 1}}, 1, 0.5),
	})
	rec.Sample()
	clk.advance(time.Second)
	src.set([]Family{
		counterFam("a_total", 3),
		gaugeFam("b", 2),
		histFam("h_seconds", []Bucket{{1, 3}, {math.Inf(1), 3}}, 3, 1.5),
	})
	rec.Sample()

	// Base family name selects every derived series of the family.
	out := rec.Query(QueryOptions{Series: []string{"h_seconds"}})
	names := map[string]bool{}
	for _, s := range out {
		names[s.Name] = true
	}
	for _, want := range []string{"h_seconds:rate", "h_seconds:p50", "h_seconds:p90", "h_seconds:p99"} {
		if !names[want] {
			t.Fatalf("base-name selector missed %s (got %v)", want, names)
		}
	}
	if names["a_total:rate"] || names["b"] {
		t.Fatalf("selector leaked unrelated series: %v", names)
	}
	// Exact derived name selects just that one.
	out = rec.Query(QueryOptions{Series: []string{"a_total:rate"}})
	if len(out) != 1 || out[0].Name != "a_total:rate" {
		t.Fatalf("exact selector: %+v", out)
	}
}

func TestRecorderConcurrentSampleQuery(t *testing.T) {
	src := &fakeSource{}
	rec := NewRecorder(src.snapshot, Options{Capacity: 16})
	src.set([]Family{counterFam("c_total", 1), gaugeFam("g", 1)})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec.Sample()
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec.Query(QueryOptions{})
			}
		}()
	}
	wg.Wait()
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Counter: "counter", Gauge: "gauge", Histogram: "histogram", Kind(7): "Kind(7)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

// TestRecorderRunSamplesUntilDone drives the tick loop on a real ticker:
// Run samples once at start and on every tick, and returns once done is
// closed.
func TestRecorderRunSamplesUntilDone(t *testing.T) {
	calls := make(chan struct{}, 64)
	snap := func() []Family {
		select {
		case calls <- struct{}{}:
		default:
		}
		return []Family{gaugeFam("g", 1)}
	}
	rec := NewRecorder(snap, Options{Interval: time.Millisecond})
	done := make(chan struct{})
	returned := make(chan struct{})
	go func() {
		rec.Run(done)
		close(returned)
	}()
	timeout := time.After(10 * time.Second)
	for i := 0; i < 3; i++ {
		select {
		case <-calls:
		case <-timeout:
			t.Fatalf("only %d samples before the timeout", i)
		}
	}
	close(done)
	select {
	case <-returned:
	case <-timeout:
		t.Fatal("Run did not return after done was closed")
	}
	rec.mu.Lock()
	n := len(rec.ring)
	rec.mu.Unlock()
	if n < 3 {
		t.Fatalf("recorder holds %d samples, want at least 3", n)
	}
}
