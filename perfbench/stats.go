package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"ropuf/internal/obs/flight"
	"ropuf/internal/obs/promtext"
	"ropuf/internal/tracestat"
)

// failedLatency stands in for the latency of a failed op: it sorts after
// every real latency, so a failure misses every limit.
const failedLatency = time.Duration(math.MaxInt64)

// latencySummary is the median and tail of one run's per-op latencies.
type latencySummary struct {
	P50, Tail time.Duration
	TailPct   float64 // the percentile Tail reports, in (0, 100)
	Beyond    int     // samples ranked above Tail
	N         int     // ops, failed ones included
}

// summarize applies the benchmark's tail rule to per-op latencies, with
// every failed op counted beyond every limit: Tail is p99 when the run has
// at least 1,000 ops, otherwise the highest percentile that still has ten
// samples beyond it. Percentiles use tracestat.Percentile's nearest-rank
// convention, so the rank of percentile p is floor(p·n).
func summarize(lat []time.Duration, failed int) latencySummary {
	all := make([]time.Duration, 0, len(lat)+failed)
	all = append(all, lat...)
	for i := 0; i < failed; i++ {
		all = append(all, failedLatency)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	n := len(all)
	s := latencySummary{N: n, P50: tracestat.Percentile(all, 0.50)}
	if n == 0 {
		return s
	}
	rank := min(int(0.99*float64(n)), n-1)
	if n < 1000 {
		rank = max(n-11, 0) // the highest rank with ten samples above it
	}
	// Mid-rank, so that floor(p·n) is rank despite float rounding.
	s.Tail = tracestat.Percentile(all, (float64(rank)+0.5)/float64(n))
	s.TailPct = 100 * float64(rank) / float64(n)
	s.Beyond = n - 1 - rank
	return s
}

// ms converts a duration to float milliseconds, keeping every digit.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianOf is the median of ds under tracestat.Percentile's nearest-rank
// convention; ds is not modified.
func medianOf(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return tracestat.Percentile(s, 0.50)
}

// medianSeconds is medianOf in seconds.
func medianSeconds(ds []time.Duration) float64 { return medianOf(ds).Seconds() }

// scrape is one parsed /metrics exposition.
type scrape []flight.Family

// parseScrape runs exposition text through the repository's strict
// Prometheus parser and folds it into flight families.
func parseScrape(text string) (scrape, error) {
	fams, err := promtext.Parse(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	return promtext.Assemble(fams)
}

// family returns the named family, or nil when the process never
// registered it.
func (s scrape) family(name string) *flight.Family {
	for i := range s {
		if s[i].Name == name {
			return &s[i]
		}
	}
	return nil
}

// matches reports whether series labels carry every label in want.
func matches(labels, want map[string]string) bool {
	for k, v := range want {
		if labels[k] != v {
			return false
		}
	}
	return true
}

// value sums the counter or gauge series of name whose labels match want.
func (s scrape) value(name string, want map[string]string) float64 {
	f := s.family(name)
	if f == nil {
		return 0
	}
	var v float64
	for _, ser := range f.Series {
		if matches(ser.Labels, want) {
			v += ser.Value
		}
	}
	return v
}

// histogram merges the cumulative buckets, count and sum of every series of
// name whose labels match want (for example every status code of a route).
func (s scrape) histogram(name string, want map[string]string) (buckets []flight.Bucket, count int64, sum float64) {
	f := s.family(name)
	if f == nil {
		return nil, 0, 0
	}
	for _, ser := range f.Series {
		if !matches(ser.Labels, want) {
			continue
		}
		if buckets == nil {
			buckets = append([]flight.Bucket(nil), ser.Buckets...)
		} else if len(ser.Buckets) == len(buckets) {
			for i := range buckets {
				buckets[i].Count += ser.Buckets[i].Count
			}
		}
		count += ser.Count
		sum += ser.Sum
	}
	return buckets, count, sum
}

// counterDelta is after − before for a counter, treating a smaller after
// reading as a process restart (the counter started again from zero).
func counterDelta(before, after scrape, name string, want map[string]string) float64 {
	b, a := before.value(name, want), after.value(name, want)
	if a < b {
		return a
	}
	return a - b
}

// histDelta is the window between two scrapes of a histogram: bucket
// counts through flight.DeltaBuckets (which restarts from zero when the
// process restarted), and the count and sum deltas with the same rule.
type histDelta struct {
	Buckets []flight.Bucket
	Count   int64
	Sum     float64
}

func histogramDelta(before, after scrape, name string, want map[string]string) histDelta {
	bb, bc, bs := before.histogram(name, want)
	ab, ac, as := after.histogram(name, want)
	d := histDelta{Buckets: flight.DeltaBuckets(ab, bb), Count: ac - bc, Sum: as - bs}
	if ac < bc {
		d.Count, d.Sum = ac, as
	}
	return d
}

// quantile estimates the q-quantile of the window with flight.Quantile;
// an empty window reads 0.
func (d histDelta) quantile(q float64) float64 {
	if d.Count == 0 {
		return 0
	}
	v := flight.Quantile(q, d.Buckets)
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// mean is Sum/Count over the window (0 when empty).
func (d histDelta) mean() float64 {
	if d.Count == 0 {
		return 0
	}
	return d.Sum / float64(d.Count)
}

// perOp divides x by ops, reading 0 for a run with no ops.
func perOp(x float64, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return x / float64(ops)
}

// describe renders a latency summary for the human-readable log.
func (s latencySummary) describe() string {
	return fmt.Sprintf("p50 %.3f ms, tail p%.1f %.3f ms (%d samples beyond, n=%d)",
		ms(s.P50), s.TailPct, ms(s.Tail), s.Beyond, s.N)
}
