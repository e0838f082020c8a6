package main

// `ropuf watch` is the fleet-wide metrics poller: it scrapes N targets'
// /metrics endpoints on a fixed interval, derives the same rate and
// quantile series the in-process flight recorder does (both sides share
// internal/obs/flight), merges a fleet-aggregate view, appends a durable
// JSONL time-series log, renders periodic terminal reports, and evaluates
// declarative anomaly rules — exiting non-zero if any rule fired, which
// is what makes it usable as a CI gate (DESIGN.md §14).

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ropuf/internal/obs/flight"
	"ropuf/internal/obs/promtext"
)

func runWatch(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	interval := fs.Duration("interval", time.Second, "scrape interval")
	duration := fs.Duration("duration", 0, "stop after this long (0 = until Ctrl-C)")
	reportEvery := fs.Duration("report-every", 10*time.Second, "print a terminal report this often (0 = only the final summary)")
	timeout := fs.Duration("timeout", 2*time.Second, "per-scrape HTTP timeout")
	out := fs.String("out", "", "append one JSON line per target per scrape to this file (durable time-series log)")
	rulesPath := fs.String("rules", "", "JSON file of anomaly rules (see DESIGN.md §14); empty = no rules")
	rateSeries := fs.String("rate-series", "", `counter selector for the report's rate column, e.g. 'ropuf_authserve_requests_total{route="verify"}'`)
	latencySeries := fs.String("latency-series", "", "histogram base name for the report's p50/p90/p99 columns")
	minSuccess := fs.Float64("min-success", 0, "fail (non-zero exit) if the overall scrape success ratio ends below this (0 = disabled)")
	capacity := fs.Int("history", 600, "per-target ring capacity (samples kept for rule windows)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() == 0 {
		return errors.New("watch: no targets; usage: ropuf watch [flags] <base-url>...")
	}
	var rules []watchRule
	if *rulesPath != "" {
		data, err := os.ReadFile(*rulesPath)
		if err != nil {
			return fmt.Errorf("watch: %w", err)
		}
		if rules, err = parseRules(data); err != nil {
			return fmt.Errorf("watch: %s: %w", *rulesPath, err)
		}
	}
	var rateSel, latSel selector
	var err error
	if *rateSeries != "" {
		if rateSel, err = parseSelector(*rateSeries); err != nil {
			return fmt.Errorf("watch: -rate-series: %w", err)
		}
	}
	if *latencySeries != "" {
		if latSel, err = parseSelector(*latencySeries); err != nil {
			return fmt.Errorf("watch: -latency-series: %w", err)
		}
	}

	w := newWatcher(fs.Args(), watcherOptions{
		Interval: *interval,
		Timeout:  *timeout,
		Capacity: *capacity,
		Rules:    rules,
		RateSel:  rateSel,
		LatSel:   latSel,
	})
	if *out != "" {
		f, err := os.OpenFile(*out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("watch: %w", err)
		}
		defer f.Close()
		w.log = f
	}

	fmt.Printf("watching %d target(s) every %s", len(w.targets), interval)
	if len(rules) > 0 {
		fmt.Printf(" with %d rule(s)", len(rules))
	}
	fmt.Println()

	end := time.Time{}
	if *duration > 0 {
		end = time.Now().Add(*duration)
	}
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	var lastReport time.Time
	for {
		w.pollOnce(ctx)
		for _, a := range w.newAnomalies() {
			fmt.Printf("ANOMALY %s %s\n", time.Now().Format("15:04:05"), a)
		}
		if *reportEvery > 0 && time.Since(lastReport) >= *reportEvery {
			w.report(ctx, os.Stdout)
			lastReport = time.Now()
		}
		if !end.IsZero() && !time.Now().Before(end) {
			break
		}
		select {
		case <-ctx.Done():
			// Ctrl-C: fall through to the final summary; the summary and the
			// anomaly verdict are the command's product, not collateral.
			goto done
		case <-tick.C:
		}
	}
done:
	w.report(ctx, os.Stdout)
	fmt.Print(w.summary())
	if n := w.anomalyCount(); n > 0 {
		return fmt.Errorf("watch: %d anomaly firing(s)", n)
	}
	if ratio, _ := w.successRatio(); *minSuccess > 0 && ratio < *minSuccess {
		return fmt.Errorf("watch: scrape success ratio %.4f below -min-success %.4f", ratio, *minSuccess)
	}
	return nil
}

// --- selectors --------------------------------------------------------------

// selector names a series with optional label constraints:
// `name` or `name{k="v",k2="v2"}`. The name may be a base family name or
// a derived series name (name:rate, name:p99).
type selector struct {
	Name   string
	Labels map[string]string
}

func (s selector) isZero() bool { return s.Name == "" }

// String renders the selector back to its input form.
func (s selector) String() string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%q", k, s.Labels[k])
	}
	return s.Name + "{" + strings.Join(parts, ",") + "}"
}

var selectorRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?$`)

func parseSelector(in string) (selector, error) {
	m := selectorRe.FindStringSubmatch(strings.TrimSpace(in))
	if m == nil {
		return selector{}, fmt.Errorf("malformed selector %q (want name or name{k=\"v\"})", in)
	}
	sel := selector{Name: m[1]}
	if m[3] == "" {
		return sel, nil
	}
	sel.Labels = make(map[string]string)
	for _, pair := range strings.Split(m[3], ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return selector{}, fmt.Errorf("selector %q: label %q is not k=\"v\"", in, pair)
		}
		uq, err := strconv.Unquote(strings.TrimSpace(v))
		if err != nil {
			return selector{}, fmt.Errorf("selector %q: label value %s must be double-quoted", in, v)
		}
		sel.Labels[strings.TrimSpace(k)] = uq
	}
	return sel, nil
}

// matchLabels reports whether the series labels satisfy the selector's
// constraints (subset match).
func (s selector) matchLabels(labels map[string]string) bool {
	for k, v := range s.Labels {
		if labels[k] != v {
			return false
		}
	}
	return true
}

// query runs the selector against a recorder, keeping only label-matching
// series. suffix ("" for the base/derived name as written, ":rate" etc.)
// is appended to the selector name.
func (s selector) query(rec *flight.Recorder, suffix string, since, until time.Time) []flight.RangeSeries {
	if rec == nil {
		return nil
	}
	out := rec.Query(flight.QueryOptions{Series: []string{s.Name + suffix}, Since: since, Until: until})
	kept := out[:0]
	for _, rs := range out {
		if s.matchLabels(rs.Labels) {
			kept = append(kept, rs)
		}
	}
	return kept
}

// --- rules ------------------------------------------------------------------

// watchRule is one declarative anomaly check, evaluated every poll round
// per applicable target. See DESIGN.md §14 for the schema.
type watchRule struct {
	// Type is one of flatline, rate_drop, burn_rate, p99_ceiling,
	// scrape_failure.
	Type string `json:"type"`
	// Series is the selector the rule watches (not used by scrape_failure).
	Series string `json:"series,omitempty"`
	// Target restricts the rule to one target name; empty = every target
	// (including the fleet aggregate, except scrape_failure).
	Target string `json:"target,omitempty"`
	// Window is the evaluation window as a Go duration string; defaults
	// to 10s. Rules stay silent until the watch has run a full window.
	Window string `json:"window,omitempty"`
	// MinTotal gates activity-sensitive rules: flatline needs ~this many
	// prior events before silence is suspicious; rate_drop needs this mean
	// rate in the older half; burn_rate needs this many in-window events.
	MinTotal float64 `json:"min_total,omitempty"`
	// Pct is rate_drop's firing threshold: newer-half mean below
	// (100-Pct)% of the older-half mean fires.
	Pct float64 `json:"pct,omitempty"`
	// ErrorCodes is burn_rate's error classifier, a regexp over the code
	// label; default ^(5..|429|error)$.
	ErrorCodes string `json:"error_codes,omitempty"`
	// Objective is burn_rate's availability SLO (default 0.99); Max is the
	// burn-rate threshold (default 10).
	Objective float64 `json:"objective,omitempty"`
	Max       float64 `json:"max,omitempty"`
	// MaxSeconds is p99_ceiling's threshold on the windowed mean of the
	// per-tick p99 estimates.
	MaxSeconds float64 `json:"max_seconds,omitempty"`
	// MaxFailures is scrape_failure's tolerated in-window failure count.
	MaxFailures int `json:"max_failures,omitempty"`

	sel    selector
	window time.Duration
	errRe  *regexp.Regexp
}

func parseRules(data []byte) ([]watchRule, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var rules []watchRule
	if err := dec.Decode(&rules); err != nil {
		return nil, err
	}
	for i := range rules {
		r := &rules[i]
		switch r.Type {
		case "flatline", "rate_drop", "burn_rate", "p99_ceiling":
			if r.Series == "" {
				return nil, fmt.Errorf("rule %d (%s): series is required", i, r.Type)
			}
			var err error
			if r.sel, err = parseSelector(r.Series); err != nil {
				return nil, fmt.Errorf("rule %d: %w", i, err)
			}
		case "scrape_failure":
		default:
			return nil, fmt.Errorf("rule %d: unknown type %q", i, r.Type)
		}
		r.window = 10 * time.Second
		if r.Window != "" {
			d, err := time.ParseDuration(r.Window)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("rule %d: bad window %q", i, r.Window)
			}
			r.window = d
		}
		if r.Type == "burn_rate" {
			if r.ErrorCodes == "" {
				r.ErrorCodes = `^(5..|429|error)$`
			}
			var err error
			if r.errRe, err = regexp.Compile(r.ErrorCodes); err != nil {
				return nil, fmt.Errorf("rule %d: error_codes: %w", i, err)
			}
			if r.Objective == 0 {
				r.Objective = 0.99
			}
			if r.Objective <= 0 || r.Objective >= 1 {
				return nil, fmt.Errorf("rule %d: objective %g outside (0,1)", i, r.Objective)
			}
			if r.Max == 0 {
				r.Max = 10
			}
		}
		if r.Type == "rate_drop" && (r.Pct <= 0 || r.Pct > 100) {
			return nil, fmt.Errorf("rule %d: rate_drop needs pct in (0,100]", i)
		}
		if r.Type == "p99_ceiling" && r.MaxSeconds <= 0 {
			return nil, fmt.Errorf("rule %d: p99_ceiling needs max_seconds > 0", i)
		}
	}
	return rules, nil
}

// evaluate runs the rule against one target, returning a firing detail or
// "" when quiet. now/start bound the warmup: windowed rules stay silent
// until a full window of history exists.
func (r *watchRule) evaluate(t *watchTarget, now, start time.Time, interval time.Duration) string {
	if now.Sub(start) < r.window {
		return ""
	}
	since := now.Add(-r.window)
	switch r.Type {
	case "flatline":
		t.mu.Lock()
		lastOK := t.lastOK
		t.mu.Unlock()
		if !t.virtual && (lastOK.IsZero() || now.Sub(lastOK) > r.window) {
			return fmt.Sprintf("flatline[%s] %s: no successful scrape in %s", t.name, r.sel, r.window)
		}
		var inWindow, before float64
		for _, rs := range r.sel.query(t.rec, ":rate", time.Time{}, time.Time{}) {
			for _, p := range rs.Points {
				if p.TS.Before(since) {
					before += p.Value * interval.Seconds()
				} else {
					inWindow += p.Value * interval.Seconds()
				}
			}
		}
		if before >= math.Max(r.MinTotal, 1) && inWindow == 0 {
			return fmt.Sprintf("flatline[%s] %s: ~%.0f events before the window, zero in the last %s",
				t.name, r.sel, before, r.window)
		}
	case "rate_drop":
		mid := now.Add(-r.window / 2)
		var oldSum, newSum float64
		var oldN, newN int
		for _, rs := range r.sel.query(t.rec, ":rate", since, time.Time{}) {
			for _, p := range rs.Points {
				if p.TS.Before(mid) {
					oldSum += p.Value
					oldN++
				} else {
					newSum += p.Value
					newN++
				}
			}
		}
		if oldN < 2 || newN < 2 {
			return ""
		}
		oldMean, newMean := oldSum/float64(oldN), newSum/float64(newN)
		if oldMean >= math.Max(r.MinTotal, 1) && newMean < oldMean*(1-r.Pct/100) {
			return fmt.Sprintf("rate_drop[%s] %s: %.1f/s → %.1f/s (> %.0f%% drop over %s)",
				t.name, r.sel, oldMean, newMean, r.Pct, r.window)
		}
	case "burn_rate":
		var total, errs float64
		for _, rs := range r.sel.query(t.rec, ":rate", since, time.Time{}) {
			var sum float64
			for _, p := range rs.Points {
				sum += p.Value * interval.Seconds()
			}
			total += sum
			if r.errRe.MatchString(rs.Labels["code"]) {
				errs += sum
			}
		}
		if total < math.Max(r.MinTotal, 1) {
			return ""
		}
		burn := (errs / total) / (1 - r.Objective)
		// Relative epsilon: an error ratio sitting exactly on the objective
		// boundary must fire despite float division noise.
		if burn >= r.Max*(1-1e-12) {
			return fmt.Sprintf("burn_rate[%s] %s: burn %.1f ≥ %.1f (%.0f of %.0f requests matched %s in %s)",
				t.name, r.sel, burn, r.Max, errs, total, r.ErrorCodes, r.window)
		}
	case "p99_ceiling":
		// Per label set: quantiles from different label sets must not be
		// mixed. The worst series' windowed mean is what gets compared to
		// the ceiling — one slow route must not hide behind nine fast ones.
		worst := math.NaN()
		for _, rs := range r.sel.query(t.rec, ":p99", since, time.Time{}) {
			var sum float64
			for _, p := range rs.Points {
				sum += p.Value
			}
			if mean := sum / float64(len(rs.Points)); math.IsNaN(worst) || mean > worst {
				worst = mean
			}
		}
		if !math.IsNaN(worst) && worst > r.MaxSeconds {
			return fmt.Sprintf("p99_ceiling[%s] %s: windowed p99 %.4fs > %.4fs ceiling",
				t.name, r.sel, worst, r.MaxSeconds)
		}
	case "scrape_failure":
		if t.virtual {
			return ""
		}
		t.mu.Lock()
		var n int
		for _, ts := range t.failTS {
			if !ts.Before(since) {
				n++
			}
		}
		t.mu.Unlock()
		if n > r.MaxFailures {
			return fmt.Sprintf("scrape_failure[%s]: %d failed scrapes in %s (max %d)",
				t.name, n, r.window, r.MaxFailures)
		}
	}
	return ""
}

// --- targets & polling ------------------------------------------------------

// watchTarget is one polled endpoint plus its derived history. The fleet
// aggregate is a virtual target: same recorder machinery, no scraping.
type watchTarget struct {
	name    string
	base    string
	virtual bool
	rec     *flight.Recorder

	mu       sync.Mutex
	latest   []flight.Family
	scrapes  int
	failures int
	lastOK   time.Time
	lastErr  error
	failTS   []time.Time
}

// snapshot feeds the recorder the most recent scrape.
func (t *watchTarget) snapshot() []flight.Family {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.latest
}

type watcherOptions struct {
	Interval time.Duration
	Timeout  time.Duration
	Capacity int
	Rules    []watchRule
	RateSel  selector
	LatSel   selector
	Now      func() time.Time // tests; nil = time.Now
}

type watcher struct {
	opt     watcherOptions
	client  *http.Client
	targets []*watchTarget // scraped targets
	fleet   *watchTarget   // aggregate (present with ≥2 targets)
	start   time.Time
	log     io.Writer // JSONL sink; nil = off

	mu       sync.Mutex
	firing   map[string]bool // rule+target -> currently firing (dedup)
	pending  []string        // transitions not yet printed
	firings  int             // total quiet→firing transitions
	rounds   int
	statsErr error // last /v1/stats cross-check failure, for the report
}

func newWatcher(urls []string, opt watcherOptions) *watcher {
	if opt.Now == nil {
		opt.Now = time.Now
	}
	if opt.Capacity <= 0 {
		opt.Capacity = 600
	}
	w := &watcher{
		opt:    opt,
		client: &http.Client{Timeout: opt.Timeout},
		firing: make(map[string]bool),
		start:  opt.Now(),
	}
	for _, u := range urls {
		base := strings.TrimSuffix(u, "/")
		t := &watchTarget{name: targetName(base), base: base}
		t.rec = flight.NewRecorder(t.snapshot, flight.Options{
			Interval: opt.Interval, Capacity: opt.Capacity, Now: opt.Now,
		})
		w.targets = append(w.targets, t)
	}
	if len(w.targets) > 1 {
		w.fleet = &watchTarget{name: "fleet", virtual: true}
		w.fleet.rec = flight.NewRecorder(func() []flight.Family {
			return aggregate(w.targets)
		}, flight.Options{Interval: opt.Interval, Capacity: opt.Capacity, Now: opt.Now})
	}
	return w
}

// targetName derives a short display name from a base URL.
func targetName(base string) string {
	name := base
	if i := strings.Index(name, "://"); i >= 0 {
		name = name[i+3:]
	}
	return name
}

// pollOnce scrapes every target concurrently, samples the recorders, logs
// the JSONL records, and evaluates the rules.
func (w *watcher) pollOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, t := range w.targets {
		wg.Add(1)
		go func(t *watchTarget) {
			defer wg.Done()
			w.scrape(ctx, t)
		}(t)
	}
	wg.Wait()
	if w.fleet != nil {
		w.fleet.rec.Sample()
	}
	w.mu.Lock()
	w.rounds++
	w.mu.Unlock()
	if w.log != nil {
		for _, t := range w.allTargets() {
			w.logTarget(t)
		}
	}
	w.evalRules()
}

func (w *watcher) allTargets() []*watchTarget {
	all := make([]*watchTarget, len(w.targets), len(w.targets)+1)
	copy(all, w.targets)
	if w.fleet != nil {
		all = append(all, w.fleet)
	}
	return all
}

// scrape fetches one target's /metrics and folds it into the history; a
// parse failure counts as a failed scrape (a non-metrics answer means the
// target is not healthy, whatever its status code said).
func (w *watcher) scrape(ctx context.Context, t *watchTarget) {
	fams, err := scrapeMetrics(ctx, w.client, t.base)
	t.mu.Lock()
	t.scrapes++
	if err != nil {
		t.failures++
		t.lastErr = err
		t.failTS = append(t.failTS, w.opt.Now())
		if len(t.failTS) > 4096 {
			t.failTS = t.failTS[len(t.failTS)-4096:]
		}
		t.mu.Unlock()
		return
	}
	t.latest = fams
	t.lastOK = w.opt.Now()
	t.lastErr = nil
	t.mu.Unlock()
	t.rec.Sample()
}

func scrapeMetrics(ctx context.Context, client *http.Client, base string) ([]flight.Family, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	fams, err := promtext.Parse(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	return promtext.Assemble(fams)
}

// aggregate merges the latest scrape of every target into fleet-wide
// families: counters, gauges, histogram counts/sums/buckets all sum per
// label set (gauge sums read as fleet totals — inflight requests, heap
// bytes). Histograms with mismatched bucket layouts keep the first layout
// and drop the stragglers rather than fabricating a merged one.
func aggregate(targets []*watchTarget) []flight.Family {
	type agg struct {
		fam   flight.Family
		byKey map[string]int // flight.LabelKey -> series index
	}
	var order []string
	fams := make(map[string]*agg)
	for _, t := range targets {
		for _, f := range t.snapshot() {
			a, ok := fams[f.Name]
			if !ok {
				a = &agg{fam: flight.Family{Name: f.Name, Kind: f.Kind}, byKey: map[string]int{}}
				fams[f.Name] = a
				order = append(order, f.Name)
			}
			if a.fam.Kind != f.Kind {
				continue // same name, different kind across targets: skip
			}
			for _, s := range f.Series {
				key := flight.LabelKey(s.Labels)
				i, ok := a.byKey[key]
				if !ok {
					a.byKey[key] = len(a.fam.Series)
					a.fam.Series = append(a.fam.Series, flight.Series{
						Labels:  s.Labels,
						Buckets: append([]flight.Bucket(nil), s.Buckets...),
						Value:   s.Value, Count: s.Count, Sum: s.Sum,
					})
					continue
				}
				dst := &a.fam.Series[i]
				dst.Value += s.Value
				dst.Count += s.Count
				dst.Sum += s.Sum
				if len(dst.Buckets) == len(s.Buckets) {
					for b := range dst.Buckets {
						dst.Buckets[b].Count += s.Buckets[b].Count
					}
				}
			}
		}
	}
	out := make([]flight.Family, 0, len(order))
	for _, name := range order {
		out = append(out, fams[name].fam)
	}
	return out
}

// evalRules runs every rule against every applicable target, recording
// quiet→firing transitions.
func (w *watcher) evalRules() {
	now := w.opt.Now()
	for i := range w.opt.Rules {
		r := &w.opt.Rules[i]
		for _, t := range w.allTargets() {
			if r.Target != "" && r.Target != t.name {
				continue
			}
			detail := r.evaluate(t, now, w.start, w.opt.Interval)
			key := fmt.Sprintf("%d/%s", i, t.name)
			w.mu.Lock()
			was := w.firing[key]
			w.firing[key] = detail != ""
			if detail != "" && !was {
				w.firings++
				w.pending = append(w.pending, detail)
			}
			w.mu.Unlock()
		}
	}
}

// newAnomalies drains the not-yet-printed firing transitions.
func (w *watcher) newAnomalies() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.pending
	w.pending = nil
	return out
}

func (w *watcher) anomalyCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.firings
}

// successRatio returns the share of scrapes that succeeded across every
// target (0 before the first scrape) and the number of scrapes.
func (w *watcher) successRatio() (ratio float64, scrapes int) {
	var failures int
	for _, t := range w.targets {
		t.mu.Lock()
		scrapes += t.scrapes
		failures += t.failures
		t.mu.Unlock()
	}
	if scrapes == 0 {
		return 0, 0
	}
	return float64(scrapes-failures) / float64(scrapes), scrapes
}

// --- JSONL log --------------------------------------------------------------

// watchRecord is one target's newest derived readings at one poll round —
// the durable time-series log's line format.
type watchRecord struct {
	TS     float64            `json:"ts"`
	Target string             `json:"target"`
	OK     bool               `json:"ok"`
	Err    string             `json:"err,omitempty"`
	Series map[string]float64 `json:"series,omitempty"`
}

// logTarget appends one JSONL record: every derived series' newest point.
// Series keys carry the label set in selector form, so the log replays
// into per-series columns without a schema.
func (w *watcher) logTarget(t *watchTarget) {
	now := w.opt.Now()
	rec := watchRecord{
		TS:     float64(now.UnixMilli()) / 1e3,
		Target: t.name,
	}
	t.mu.Lock()
	rec.OK = t.virtual || (t.lastErr == nil && !t.lastOK.IsZero())
	if t.lastErr != nil {
		rec.Err = t.lastErr.Error()
	}
	t.mu.Unlock()
	// Only the newest tick's points: query the last interval.
	since := now.Add(-w.opt.Interval / 2)
	out := t.rec.Query(flight.QueryOptions{Since: since})
	if len(out) > 0 {
		rec.Series = make(map[string]float64, len(out))
		for _, rs := range out {
			key := rs.Name
			if len(rs.Labels) > 0 {
				key = selector{Name: rs.Name, Labels: rs.Labels}.String()
			}
			rec.Series[key] = rs.Points[len(rs.Points)-1].Value
		}
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return
	}
	_, _ = w.log.Write(append(data, '\n'))
}

// --- reporting --------------------------------------------------------------

// report renders the periodic terminal table: per-target scrape health
// plus the selected rate and latency columns, and a /v1/stats cross-check
// of the rate when a rate selector is set.
func (w *watcher) report(ctx context.Context, out io.Writer) {
	now := w.opt.Now()
	w.mu.Lock()
	round := w.rounds
	w.mu.Unlock()
	fmt.Fprintf(out, "— watch %s (round %d, %s elapsed) —\n",
		now.Format("15:04:05"), round, now.Sub(w.start).Round(time.Second))
	tw := newTableWriter(out)
	header := []string{"target", "scrapes", "ok%"}
	if !w.opt.RateSel.isZero() {
		header = append(header, "rate/s", "server rate/s")
	}
	if !w.opt.LatSel.isZero() {
		header = append(header, "p50", "p90", "p99")
	}
	tw.row(header...)
	for _, t := range w.allTargets() {
		t.mu.Lock()
		scrapes, failures := t.scrapes, t.failures
		t.mu.Unlock()
		cells := []string{t.name}
		if t.virtual {
			cells = append(cells, "-", "-")
		} else {
			ratio := 0.0
			if scrapes > 0 {
				ratio = 100 * float64(scrapes-failures) / float64(scrapes)
			}
			cells = append(cells, strconv.Itoa(scrapes), fmt.Sprintf("%.1f", ratio))
		}
		if !w.opt.RateSel.isZero() {
			cells = append(cells, formatRate(latestSum(w.opt.RateSel, t.rec, ":rate")))
			cells = append(cells, w.serverRate(ctx, t))
		}
		if !w.opt.LatSel.isZero() {
			for _, q := range []string{":p50", ":p90", ":p99"} {
				v := latestWorst(w.opt.LatSel, t.rec, q)
				if math.IsNaN(v) {
					cells = append(cells, "-")
				} else {
					cells = append(cells, (time.Duration(v * float64(time.Second))).Round(time.Microsecond).String())
				}
			}
		}
		tw.row(cells...)
	}
	tw.flush()
	w.mu.Lock()
	firingNow := 0
	for _, f := range w.firing {
		if f {
			firingNow++
		}
	}
	statsErr := w.statsErr
	w.mu.Unlock()
	if firingNow > 0 {
		fmt.Fprintf(out, "anomalies firing: %d\n", firingNow)
	}
	if statsErr != nil {
		fmt.Fprintf(out, "stats cross-check: %v\n", statsErr)
	}
}

// latestSum is the newest-point sum across a selector's matching series
// (rates add across label sets; quantiles over a single matched series).
// NaN when no matching series has a current point.
func latestSum(sel selector, rec *flight.Recorder, suffix string) float64 {
	sum, n := 0.0, 0
	for _, rs := range sel.query(rec, suffix, time.Time{}, time.Time{}) {
		sum += rs.Points[len(rs.Points)-1].Value
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum
}

// latestWorst is the newest-point maximum across a selector's matching
// series. Quantiles from different label sets cannot be summed — the
// worst one is the honest single-cell rendering. NaN when nothing matches.
func latestWorst(sel selector, rec *flight.Recorder, suffix string) float64 {
	worst := math.NaN()
	for _, rs := range sel.query(rec, suffix, time.Time{}, time.Time{}) {
		v := rs.Points[len(rs.Points)-1].Value
		if math.IsNaN(worst) || v > worst {
			worst = v
		}
	}
	return worst
}

func formatRate(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return strconv.FormatFloat(v, 'f', 1, 64)
}

// serverRate fetches the target's own /v1/stats view of the rate selector
// — the flight recorder inside the server derives the same series from
// the same registry, so the two numbers agreeing is a live end-to-end
// check of both pipelines.
func (w *watcher) serverRate(ctx context.Context, t *watchTarget) string {
	if t.virtual {
		return "-"
	}
	v, err := fetchStatsRate(ctx, w.client, t.base, w.opt.RateSel)
	w.mu.Lock()
	w.statsErr = err
	w.mu.Unlock()
	if err != nil || math.IsNaN(v) {
		return "-"
	}
	return strconv.FormatFloat(v, 'f', 1, 64)
}

// statsResponse mirrors the /v1/stats JSON contract (DESIGN.md §14).
type statsResponse struct {
	Now    float64 `json:"now"`
	Series []struct {
		Name   string            `json:"name"`
		Labels map[string]string `json:"labels"`
		Points [][]float64       `json:"points"`
	} `json:"series"`
}

// fetchStatsRate reads the newest sum of the selector's rate series from
// a target's own flight recorder.
func fetchStatsRate(ctx context.Context, client *http.Client, base string, sel selector) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/v1/stats?series="+sel.Name+":rate", nil)
	if err != nil {
		return math.NaN(), err
	}
	resp, err := client.Do(req)
	if err != nil {
		return math.NaN(), err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return math.NaN(), fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	var sr statsResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&sr); err != nil {
		return math.NaN(), fmt.Errorf("GET /v1/stats: %w", err)
	}
	sum, n := 0.0, 0
	for _, s := range sr.Series {
		if s.Name != sel.Name+":rate" || !sel.matchLabels(s.Labels) || len(s.Points) == 0 {
			continue
		}
		last := s.Points[len(s.Points)-1]
		if len(last) == 2 {
			sum += last[1]
			n++
		}
	}
	if n == 0 {
		return math.NaN(), nil
	}
	return sum, nil
}

// summary renders the final verdict block.
func (w *watcher) summary() string {
	var b strings.Builder
	ratio, scrapes := w.successRatio()
	fmt.Fprintf(&b, "watch: %d scrapes across %d target(s), %.2f%% ok\n",
		scrapes, len(w.targets), 100*ratio)
	if !w.opt.RateSel.isZero() {
		for _, t := range w.allTargets() {
			if mean := meanRate(w.opt.RateSel, t.rec); !math.IsNaN(mean) {
				fmt.Fprintf(&b, "watch: %s %s mean %.1f/s\n", t.name, w.opt.RateSel, mean)
			}
		}
	}
	fmt.Fprintf(&b, "watch: anomaly firings: %d\n", w.anomalyCount())
	return b.String()
}

// meanRate averages the selector's summed rate over every recorded tick.
func meanRate(sel selector, rec *flight.Recorder) float64 {
	byTS := map[int64]float64{}
	for _, rs := range sel.query(rec, ":rate", time.Time{}, time.Time{}) {
		for _, p := range rs.Points {
			byTS[p.TS.UnixMilli()] += p.Value
		}
	}
	if len(byTS) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range byTS {
		sum += v
	}
	return sum / float64(len(byTS))
}

// tableWriter renders aligned columns without importing text/tabwriter's
// trailing-space quirks into golden-tested output.
type tableWriter struct {
	out  io.Writer
	rows [][]string
}

func newTableWriter(out io.Writer) *tableWriter { return &tableWriter{out: out} }

func (t *tableWriter) row(cells ...string) { t.rows = append(t.rows, cells) }

func (t *tableWriter) flush() {
	widths := map[int]int{}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, r := range t.rows {
		var b strings.Builder
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(r)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		fmt.Fprintln(t.out, strings.TrimRight(b.String(), " "))
	}
}
