package authserve

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"ropuf/internal/obs"
	"ropuf/internal/obs/audit"
)

// Per-device security telemetry. The store half (devStats) keeps rolling
// consumption counters next to the device data they describe, updated
// under the shard locks the mutation already holds — O(1) on the hot
// path, no extra locking. The server half (abuseScorer, server.go wiring)
// sweeps those windows into abuse flags.
//
// The rolling window is a ring of telemetryBuckets coarse buckets, each
// TelemetryWindow/telemetryBuckets wide. A write advances the ring to the
// current bucket (zeroing at most the buckets skipped since the last
// write — amortized O(1)) and increments in place; a read sums the
// buckets still inside the window without mutating anything, so read
// paths can stay under RLock. Like the outstanding-challenge table, the
// counters are deliberately memory-only: a restart starts the windows
// empty, and cumulative counts restart at zero (the audit stream is the
// durable record).

// telemetryBuckets is the ring size: window resolution is 1/16 of
// TelemetryWindow, the same coarseness obs.BurnTracker's Window/64
// coalescing accepts.
const telemetryBuckets = 16

// telemetryBucket's counters and devStats.challenges are uint32, which
// halves a challenged device's record (280 B, against 536 B with int64s).
// None can overflow. A stored device has at most 2^24 pairs
// (maxBinaryVectors in internal/core); each challenge consumes at least
// one fresh pair and a pair is never reissued, so a device sees at most
// 2^24 challenges and 2^24 challenged pairs in all; each verify consumes
// one outstanding challenge, so verifies and fails stay below that too;
// and a rolled-back challenge (Store.Challenge) subtracts only what it
// added, from the bucket it added it to.
type telemetryBucket struct {
	challenges uint32
	pairs      uint32
	verifies   uint32
	fails      uint32
}

// devStats is one device's telemetry since process start: the challenges
// issued, the time of the last verify, and the rolling ring the abuse
// scorer reads. A device gets one on its first challenge or verify.
type devStats struct {
	challenges uint32
	lastVerify int64 // unix seconds; 0 = never this process

	lastStep int64 // ring position of the most recent write
	ring     [telemetryBuckets]telemetryBucket
}

// bucketStep maps a timestamp to its ring step for a given bucket width.
func bucketStep(t time.Time, width time.Duration) int64 {
	return t.UnixNano() / int64(width)
}

// advance rotates the ring to step s, zeroing buckets for any steps that
// passed with no writes. Cost is min(steps skipped, telemetryBuckets).
func (d *devStats) advance(s int64) {
	if d.lastStep == 0 || s-d.lastStep >= telemetryBuckets {
		d.ring = [telemetryBuckets]telemetryBucket{}
	} else {
		for t := d.lastStep + 1; t <= s; t++ {
			d.ring[t%telemetryBuckets] = telemetryBucket{}
		}
	}
	if s > d.lastStep {
		d.lastStep = s
	}
}

// windowSum sums the buckets whose step is within telemetryBuckets steps
// of now (step s), read-only. Buckets written before the window slid past
// them are excluded by reconstructing each index's step from lastStep.
func (d *devStats) windowSum(s int64) (challenges, pairs, verifies, fails int64) {
	if d.lastStep == 0 {
		return 0, 0, 0, 0
	}
	for i := int64(0); i < telemetryBuckets; i++ {
		t := d.lastStep - ((d.lastStep-i)%telemetryBuckets+telemetryBuckets)%telemetryBuckets
		if t > s-telemetryBuckets && t <= s {
			b := &d.ring[i]
			challenges += int64(b.challenges)
			pairs += int64(b.pairs)
			verifies += int64(b.verifies)
			fails += int64(b.fails)
		}
	}
	return challenges, pairs, verifies, fails
}

// statsFor returns (creating if needed) a device's stats record. Caller
// holds the shard write lock.
func (sh *shard) statsFor(id string) *devStats {
	d := sh.stats[id]
	if d == nil {
		d = &devStats{}
		sh.stats[id] = d
	}
	return d
}

// DeviceTelemetry is the cumulative (process-lifetime) per-device counter
// view behind GET /v1/devices/{id}.
type DeviceTelemetry struct {
	ChallengesIssued int64
	LastVerifyUnix   int64 // 0 = never this process
}

// Telemetry returns a device's cumulative counters. Devices with no
// activity this process report zeros.
func (s *Store) Telemetry(id string) DeviceTelemetry {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	d := sh.stats[id]
	if d == nil {
		return DeviceTelemetry{}
	}
	return DeviceTelemetry{ChallengesIssued: int64(d.challenges), LastVerifyUnix: d.lastVerify}
}

// DeviceWindow is one device's rolling-window consumption snapshot, the
// scorer's input. Every enrolled device gets an entry — idle devices
// report zeros, which is what keeps the fleet median honest when a single
// harvester is the only active device.
type DeviceWindow struct {
	ID         string
	Fresh      int   // pairs still available
	Challenges int64 // challenges issued within the window
	Pairs      int64 // pairs consumed within the window
	Verifies   int64 // verify verdicts within the window
	Fails      int64 // failed verdicts within the window
}

// Windows snapshots every enrolled device's rolling window at time now.
func (s *Store) Windows(now time.Time) []DeviceWindow {
	step := bucketStep(now, s.bucketWidth)
	var out []DeviceWindow
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, id := range sh.v.DeviceIDs() {
			w := DeviceWindow{ID: id}
			w.Fresh, _ = sh.v.NumFresh(id)
			if d := sh.stats[id]; d != nil {
				w.Challenges, w.Pairs, w.Verifies, w.Fails = d.windowSum(step)
			}
			out = append(out, w)
		}
		sh.mu.RUnlock()
	}
	return out
}

// --- abuse scorer -----------------------------------------------------------

// Flag reasons, also the `reason` label of ropuf_authserve_device_flags
// and the audit flag/unflag events.
const (
	FlagHarvest    = "harvest"
	FlagExhaustion = "exhaustion"
)

// Abuse-scorer thresholds (DESIGN.md §12). Every rate is taken over the
// store's TelemetryWindow, the window the device counters are summed over.
const (
	// harvestRateFactor flags a device whose challenge rate is at least
	// this multiple of the fleet median (idle devices included, so a lone
	// harvester towers over a zero median).
	harvestRateFactor = 8
	// harvestMinChallenges is the window challenge count below which the
	// harvest rate rule never fires (absolute floor against tiny-sample
	// flapping).
	harvestMinChallenges = 32
	// harvestFailRatio flags a device whose windowed verify-fail fraction
	// reaches this value (response guessing).
	harvestFailRatio = 0.5
	// harvestMinVerifies is the window verify count below which the
	// fail-ratio rule never fires.
	harvestMinVerifies = 16
	// exhaustionTTE flags a device whose projected time-to-empty (fresh
	// pairs over windowed drain rate) falls to this or below.
	exhaustionTTE = time.Minute
	// exhaustionMinPairs is the window pair consumption below which the
	// exhaustion rule never fires.
	exhaustionMinPairs = 32
)

// FlaggedDevice is one device's open flags, the /v1/audit/flagged wire
// payload (defined here rather than wire.go because it is born in this
// PR's contract).
type FlaggedDevice struct {
	ID        string             `json:"id"`
	Reasons   []string           `json:"reasons"`
	SinceUnix int64              `json:"since_unix"`
	Evidence  map[string]float64 `json:"evidence"`
}

// FlaggedResponse is the GET /v1/audit/flagged body.
type FlaggedResponse struct {
	Window  string          `json:"window"`
	Devices []FlaggedDevice `json:"devices"`
}

// flagState tracks one device's open flags and the hysteresis clock.
type flagState struct {
	reasons  map[string]bool
	since    time.Time
	evidence map[string]float64
	// lastQualify is the most recent sweep at which each reason's
	// evidence still qualified; a reason clears only after one full clean
	// Window beyond this (flap damping: a harvester pausing briefly does
	// not reset its record).
	lastQualify map[string]time.Time
}

// abuseScorer sweeps the store's device windows into flags. Sweeps are
// demand-driven (healthz, /v1/audit/flagged, metrics consumers calling
// Flagged) and rate-limited to window/32 so polling is cheap; there is no
// background goroutine to drain on shutdown.
type abuseScorer struct {
	store  *Store
	window time.Duration // the store's TelemetryWindow
	audit  *audit.Writer
	now    func() time.Time
	// gauge backs ropuf_authserve_device_flags{reason}: open flag counts,
	// refreshed at sweep time (a labelled gauge cannot be read-on-scrape,
	// so the value trails the last health/flagged poll by design).
	gauge *obs.GaugeVec

	mu        sync.Mutex
	lastSweep time.Time
	flags     map[string]*flagState
	byReason  map[string]int // open flag count per reason, mirrors gauge
}

func newAbuseScorer(store *Store, aw *audit.Writer, gauge *obs.GaugeVec) *abuseScorer {
	return &abuseScorer{
		store:  store,
		window: store.opt.TelemetryWindow,
		audit:  aw,
		// Deref store.now per call: tests swap the store clock after
		// construction and the scorer must follow it.
		now:      func() time.Time { return store.now() },
		gauge:    gauge,
		flags:    map[string]*flagState{},
		byReason: map[string]int{FlagHarvest: 0, FlagExhaustion: 0},
	}
}

// Flagged sweeps (subject to the rate limit unless force is set) and
// returns the open flags sorted by device ID.
func (a *abuseScorer) Flagged(force bool) []FlaggedDevice {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sweepLocked(force)
	out := make([]FlaggedDevice, 0, len(a.flags))
	for id, st := range a.flags {
		fd := FlaggedDevice{ID: id, SinceUnix: st.since.Unix(), Evidence: st.evidence}
		for r := range st.reasons {
			fd.Reasons = append(fd.Reasons, r)
		}
		sort.Strings(fd.Reasons)
		out = append(out, fd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// sweepLocked recomputes every device's flags from the store windows.
// Caller holds a.mu.
func (a *abuseScorer) sweepLocked(force bool) {
	now := a.now()
	if !force && !a.lastSweep.IsZero() && now.Sub(a.lastSweep) < a.window/32 {
		return
	}
	a.lastSweep = now

	windows := a.store.Windows(now)
	winSec := a.window.Seconds()

	// Fleet median challenge rate over ALL enrolled devices (idle devices
	// count as zero — computing it over active devices only would let a
	// lone harvester define the median). Each device is compared against
	// the median of the OTHER devices: in a small fleet the harvester
	// would otherwise be its own median and never stand out.
	rates := make([]float64, len(windows))
	for i, w := range windows {
		rates[i] = float64(w.Challenges) / winSec
	}
	sort.Float64s(rates)
	medianExcluding := func(r float64) float64 {
		n := len(rates)
		if n <= 1 {
			return 0
		}
		// Median (upper-median convention, index k/2 of k elements) of
		// the sorted rates with one instance of r removed.
		m := (n - 1) / 2
		if sort.SearchFloat64s(rates, r) <= m {
			return rates[m+1]
		}
		return rates[m]
	}

	for _, w := range windows {
		rate := float64(w.Challenges) / winSec
		median := medianExcluding(rate)
		evidence := map[string]float64{
			"challenge_rate":    rate,
			"fleet_median_rate": median,
			"window_pairs":      float64(w.Pairs),
			"fresh":             float64(w.Fresh),
		}

		harvest := w.Challenges >= harvestMinChallenges &&
			rate >= harvestRateFactor*median
		if w.Verifies >= harvestMinVerifies {
			failRatio := float64(w.Fails) / float64(w.Verifies)
			evidence["fail_ratio"] = failRatio
			harvest = harvest || failRatio >= harvestFailRatio
		}

		exhaustion := false
		if drain := float64(w.Pairs) / winSec; w.Pairs >= exhaustionMinPairs && drain > 0 {
			tte := float64(w.Fresh) / drain
			evidence["tte_seconds"] = tte
			exhaustion = tte <= exhaustionTTE.Seconds()
		}

		a.applyLocked(now, w.ID, FlagHarvest, harvest, evidence)
		a.applyLocked(now, w.ID, FlagExhaustion, exhaustion, evidence)
	}
	if a.gauge != nil {
		for reason, n := range a.byReason {
			a.gauge.With(reason).Set(float64(n))
		}
	}
}

// applyLocked moves one (device, reason) through the flag state machine:
// qualify → raise (with an audit event carrying the evidence), stop
// qualifying → clear only after one full clean window.
func (a *abuseScorer) applyLocked(now time.Time, id, reason string, qualifies bool, evidence map[string]float64) {
	st := a.flags[id]
	if qualifies {
		if st == nil {
			st = &flagState{
				reasons:     map[string]bool{},
				since:       now,
				lastQualify: map[string]time.Time{},
			}
			a.flags[id] = st
		}
		st.lastQualify[reason] = now
		st.evidence = evidence
		if !st.reasons[reason] {
			st.reasons[reason] = true
			a.byReason[reason]++
			a.audit.Emit(audit.Event{
				TS: now, Event: audit.EventFlag, DeviceID: id,
				Reason: reason, Detail: evidence,
			})
		}
		return
	}
	if st == nil || !st.reasons[reason] {
		return
	}
	if now.Sub(st.lastQualify[reason]) < a.window {
		return // hysteresis: hold the flag for one clean window
	}
	delete(st.reasons, reason)
	a.byReason[reason]--
	a.audit.Emit(audit.Event{
		TS: now, Event: audit.EventUnflag, DeviceID: id, Reason: reason,
		Detail: map[string]float64{"clean_seconds": now.Sub(st.lastQualify[reason]).Seconds()},
	})
	if len(st.reasons) == 0 {
		delete(a.flags, id)
	}
}

// healthDetail renders the device_abuse /healthz reason.
func healthDetail(flagged []FlaggedDevice) string {
	ids := make([]string, 0, 3)
	for i, fd := range flagged {
		if i == 3 {
			break
		}
		ids = append(ids, fmt.Sprintf("%s(%s)", fd.ID, strings.Join(fd.Reasons, ",")))
	}
	more := ""
	if len(flagged) > 3 {
		more = fmt.Sprintf(" and %d more", len(flagged)-3)
	}
	return fmt.Sprintf("%d devices flagged for abuse: %s%s", len(flagged), strings.Join(ids, ","), more)
}
