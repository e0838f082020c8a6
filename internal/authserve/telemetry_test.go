package authserve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"ropuf/internal/bits"
	"ropuf/internal/core"
	"ropuf/internal/fleet"
	"ropuf/internal/obs"
	"ropuf/internal/obs/audit"
)

// fakeClock pins a store (and through it the scorer) to a settable time.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTelemetryStore(t *testing.T, clock *fakeClock, window time.Duration) *Store {
	t.Helper()
	store, err := Open(StoreOptions{Tolerance: 0.25, Shards: 4, Seed: 0x7E1E, TelemetryWindow: window})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	store.now = clock.now
	return store
}

// flip inverts a '0'/'1' response string — a response that is wrong on
// every bit, guaranteed to fail any tolerance below 1.
func flip(resp string) string {
	out := []byte(resp)
	for i, c := range out {
		if c == '0' {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}

func TestDevStatsRingWindow(t *testing.T) {
	var d devStats
	// 16-bucket ring: steps 100..115 fill it; reading at step 115 sees
	// all, reading at step 120 drops steps ≤ 104.
	for s := int64(100); s < 116; s++ {
		d.advance(s)
		b := &d.ring[s%telemetryBuckets]
		b.challenges++
		b.pairs += 2
	}
	ch, pairs, _, _ := d.windowSum(115)
	if ch != 16 || pairs != 32 {
		t.Fatalf("full ring sum = %d challenges %d pairs, want 16, 32", ch, pairs)
	}
	ch, pairs, _, _ = d.windowSum(120)
	if ch != 11 || pairs != 22 {
		t.Fatalf("slid-window sum = %d challenges %d pairs, want 11, 22", ch, pairs)
	}
	// Far in the future every bucket has aged out (without any write
	// having cleared them).
	if ch, _, _, _ = d.windowSum(200); ch != 0 {
		t.Fatalf("expired window sum = %d challenges, want 0", ch)
	}
	// Writing after a long gap clears the stale ring.
	d.advance(200)
	d.ring[200%telemetryBuckets].challenges++
	if ch, _, _, _ = d.windowSum(200); ch != 1 {
		t.Fatalf("post-gap sum = %d challenges, want 1", ch)
	}
}

func TestStoreWindowsAndTelemetry(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1754650000, 0)}
	store := newTelemetryStore(t, clock, time.Minute)
	devices, enrs := testFleet(t, 3, 32)
	for _, d := range devices {
		if _, err := store.Enroll(d.ID, d.Pairs, core.Case2); err != nil {
			t.Fatal(err)
		}
	}

	// Device 0 draws two challenges and fails one verify; 1 and 2 idle.
	active := devices[0]
	nonce, ch, fresh, err := store.Challenge(active.ID, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := store.shardFor(active.ID).v.NumFresh(active.ID); fresh != want {
		t.Fatalf("Challenge returned fresh=%d, store says %d", fresh, want)
	}
	clock.advance(5 * time.Second)
	if _, _, _, err := store.Challenge(active.ID, 4); err != nil {
		t.Fatal(err)
	}
	wrong, err := bits.FromString(flip(respond(t, enrs[0], ch.Pairs, active.Pairs)))
	if err != nil {
		t.Fatal(err)
	}
	ok, _, _, err := store.Verify(active.ID, nonce, wrong)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("flipped response verified; cannot test fail accounting")
	}

	tel := store.Telemetry(active.ID)
	if tel.ChallengesIssued != 2 {
		t.Fatalf("Telemetry = %+v", tel)
	}
	if tel.LastVerifyUnix != clock.t.Unix() {
		t.Fatalf("LastVerifyUnix = %d, want %d", tel.LastVerifyUnix, clock.t.Unix())
	}
	if idle := store.Telemetry(devices[1].ID); idle.ChallengesIssued != 0 || idle.LastVerifyUnix != 0 {
		t.Fatalf("idle Telemetry = %+v", idle)
	}

	windows := store.Windows(clock.t)
	if len(windows) != 3 {
		t.Fatalf("Windows returned %d entries, want 3 (idle devices included)", len(windows))
	}
	byID := map[string]DeviceWindow{}
	for _, w := range windows {
		byID[w.ID] = w
	}
	aw := byID[active.ID]
	if aw.Challenges != 2 || aw.Pairs != 8 || aw.Verifies != 1 || aw.Fails != 1 {
		t.Fatalf("active window = %+v", aw)
	}
	if iw := byID[devices[1].ID]; iw.Challenges != 0 || iw.Fresh == 0 {
		t.Fatalf("idle window = %+v", iw)
	}

	// A full window later the rolling counters are empty but cumulative
	// telemetry persists.
	clock.advance(2 * time.Minute)
	for _, w := range store.Windows(clock.t) {
		if w.Challenges != 0 || w.Pairs != 0 {
			t.Fatalf("window not expired: %+v", w)
		}
	}
	if tel := store.Telemetry(active.ID); tel.ChallengesIssued != 2 {
		t.Fatalf("cumulative telemetry lost: %+v", tel)
	}
}

func TestScorerHarvestFlagAndHysteresis(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1754650000, 0)}
	store := newTelemetryStore(t, clock, time.Minute)
	devices, _ := testFleet(t, 4, 256)
	for _, d := range devices {
		if _, err := store.Enroll(d.ID, d.Pairs, core.Case2); err != nil {
			t.Fatal(err)
		}
	}

	var rec strings.Builder
	aw := audit.NewWriter(&rec)
	defer aw.Close()
	reg := obs.NewRegistry()
	gauge := reg.NewGaugeVec("ropuf_authserve_device_flags", "test", "reason")
	scorer := newAbuseScorer(store, aw, gauge)

	// One device hammers challenges (40 draws of 1 pair) while the rest
	// of the fleet idles: rate 40/60s ≫ the zero fleet median.
	harvester := devices[0]
	for i := 0; i < 40; i++ {
		if _, _, _, err := store.Challenge(harvester.ID, 1); err != nil {
			t.Fatal(err)
		}
	}
	flagged := scorer.Flagged(true)
	if len(flagged) != 1 || flagged[0].ID != harvester.ID {
		t.Fatalf("flagged = %+v, want just %s", flagged, harvester.ID)
	}
	if got := flagged[0].Reasons; len(got) != 1 || got[0] != FlagHarvest {
		t.Fatalf("reasons = %v, want [harvest]", got)
	}
	ev := flagged[0].Evidence
	if ev["challenge_rate"] == 0 || ev["fleet_median_rate"] != 0 {
		t.Fatalf("evidence = %v", ev)
	}
	if g := gauge.With(FlagHarvest).Value(); g != 1 {
		t.Fatalf("harvest gauge = %g, want 1", g)
	}

	// At t+30s the burst is still inside the rolling window: the flag is
	// re-qualified (lastQualify advances to this sweep).
	clock.advance(30 * time.Second)
	if flagged := scorer.Flagged(true); len(flagged) != 1 {
		t.Fatalf("flag cleared while evidence in window: %+v", flagged)
	}
	// At t+61s the burst has aged out; the flag no longer qualifies but
	// hysteresis holds it (only 31s clean since the t+30s qualify).
	clock.advance(31 * time.Second)
	if flagged := scorer.Flagged(true); len(flagged) != 1 {
		t.Fatalf("hysteresis did not hold the flag: %+v", flagged)
	}
	// At t+91s one full clean window has passed since the last qualifying
	// sweep: cleared, and the gauge follows.
	clock.advance(30 * time.Second)
	if flagged := scorer.Flagged(true); len(flagged) != 0 {
		t.Fatalf("flag still open after a clean window: %+v", flagged)
	}
	if g := gauge.With(FlagHarvest).Value(); g != 0 {
		t.Fatalf("harvest gauge = %g after clear, want 0", g)
	}

	// The audit stream recorded the episode with its evidence.
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := audit.Read(strings.NewReader(rec.String()), "rec")
	if err != nil {
		t.Fatal(err)
	}
	var sawFlag, sawUnflag bool
	for _, e := range events {
		switch {
		case e.Event == audit.EventFlag && e.DeviceID == harvester.ID && e.Reason == FlagHarvest:
			sawFlag = true
			if e.Detail["challenge_rate"] == 0 {
				t.Fatalf("flag event carries no evidence: %+v", e)
			}
		case e.Event == audit.EventUnflag && e.DeviceID == harvester.ID && e.Reason == FlagHarvest:
			sawUnflag = true
		}
	}
	if !sawFlag || !sawUnflag {
		t.Fatalf("audit stream missing flag/unflag events: %+v", events)
	}
}

func TestScorerExhaustionFlag(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1754650000, 0)}
	store := newTelemetryStore(t, clock, time.Minute)
	devices, _ := testFleet(t, 2, 256)
	for _, d := range devices {
		if _, err := store.Enroll(d.ID, d.Pairs, core.Case2); err != nil {
			t.Fatal(err)
		}
	}

	// Drain well past half the pool inside one window with few draws: the
	// harvest MinChallenges floor (32) is not met, but what remains is
	// less than what the window burned — projected time-to-empty under
	// one window, the exhaustion rule.
	target := devices[0]
	for i := 0; i < 20; i++ {
		if _, _, _, err := store.Challenge(target.ID, 8); err != nil {
			t.Fatal(err)
		}
	}
	scorer := newAbuseScorer(store, nil, nil)
	flagged := scorer.Flagged(true)
	if len(flagged) != 1 || flagged[0].ID != target.ID {
		t.Fatalf("flagged = %+v", flagged)
	}
	if got := flagged[0].Reasons; len(got) != 1 || got[0] != FlagExhaustion {
		t.Fatalf("reasons = %v, want [exhaustion]", got)
	}
	tte := flagged[0].Evidence["tte_seconds"]
	if tte <= 0 || tte > 60 {
		t.Fatalf("tte_seconds = %g, want (0, 60]", tte)
	}
}

// TestScorerSweepRateLimit pins that unforced polls inside Window/32 reuse
// the previous sweep (cheap healthz) while forced polls always recompute.
func TestScorerSweepRateLimit(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1754650000, 0)}
	store := newTelemetryStore(t, clock, time.Minute)
	devices, _ := testFleet(t, 1, 256)
	if _, err := store.Enroll(devices[0].ID, devices[0].Pairs, core.Case2); err != nil {
		t.Fatal(err)
	}
	scorer := newAbuseScorer(store, nil, nil)
	if got := scorer.Flagged(false); len(got) != 0 {
		t.Fatalf("clean fleet flagged: %+v", got)
	}
	for i := 0; i < 40; i++ {
		if _, _, _, err := store.Challenge(devices[0].ID, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Inside the rate-limit window an unforced poll still reports the
	// stale clean sweep...
	if got := scorer.Flagged(false); len(got) != 0 {
		t.Fatalf("rate limit not applied: %+v", got)
	}
	// ...a forced one sees the harvest immediately.
	if got := scorer.Flagged(true); len(got) != 1 {
		t.Fatalf("forced sweep missed the harvest: %+v", got)
	}
}

// TestServerAbuseEndToEnd drives the HTTP surface: a harvested device must
// show up in GET /v1/audit/flagged, flip /healthz to device_abuse, and be
// visible in the flag gauge through /metrics — then recover.
func TestServerAbuseEndToEnd(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1754650000, 0)}
	var rec strings.Builder
	aw := audit.NewWriter(&rec)
	defer aw.Close()

	devices, _ := testFleet(t, 2, 256)
	srv, ts := newTestServer(t,
		StoreOptions{Tolerance: 0.25, Shards: 2, Seed: 9, TelemetryWindow: time.Minute},
		ServerOptions{Audit: aw})
	srv.store.now = clock.now
	c := ts.Client()

	for _, d := range devices {
		if code, body := post(t, c, ts.URL+"/v1/enroll", enrollBody(d)); code != http.StatusOK {
			t.Fatalf("enroll: %d %s", code, body)
		}
	}
	chBody, _ := json.Marshal(ChallengeRequest{ID: devices[0].ID, K: 1})
	for i := 0; i < 40; i++ {
		if code, body := post(t, c, ts.URL+"/v1/challenge", chBody); code != http.StatusOK {
			t.Fatalf("challenge %d: %d %s", i, code, body)
		}
	}

	code, body := get(t, c, ts.URL+"/v1/audit/flagged")
	if code != http.StatusOK {
		t.Fatalf("flagged: %d %s", code, body)
	}
	fr := mustUnmarshal[FlaggedResponse](t, body)
	if fr.Window != "1m0s" || len(fr.Devices) != 1 || fr.Devices[0].ID != devices[0].ID {
		t.Fatalf("flagged response = %+v", fr)
	}

	code, body = get(t, c, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "device_abuse") {
		t.Fatalf("healthz = %d %s, want 503 with device_abuse", code, body)
	}

	code, body = get(t, c, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if !strings.Contains(string(body), `ropuf_authserve_device_flags{reason="harvest"} 1`) {
		t.Fatalf("metrics missing harvest flag gauge:\n%s", body)
	}
	if !strings.Contains(string(body), "ropuf_audit_dropped_total 0") {
		t.Fatalf("metrics missing audit drop counter:\n%s", body)
	}

	// Recovery: one clean window later the flag clears and health is ok.
	clock.advance(2 * time.Minute)
	code, body = get(t, c, ts.URL+"/v1/audit/flagged")
	if code != http.StatusOK || len(mustUnmarshal[FlaggedResponse](t, body).Devices) != 0 {
		t.Fatalf("flag did not clear: %d %s", code, body)
	}
	code, body = get(t, c, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), `"status":"ok"`) {
		t.Fatalf("healthz after recovery = %d %s", code, body)
	}

	// The stream carries enroll + challenge + flag/unflag events.
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := audit.Read(strings.NewReader(rec.String()), "rec")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, e := range events {
		counts[e.Event]++
	}
	if counts[audit.EventEnroll] != 2 || counts[audit.EventChallenge] != 40 ||
		counts[audit.EventFlag] == 0 || counts[audit.EventUnflag] == 0 {
		t.Fatalf("audit event counts = %v", counts)
	}
}

// TestChallengeRollbackAfterRingMoved fails a challenge's commit while the
// device's ring moves a whole window on: a verify two windows later lands
// during the fsync. The rollback must take the challenge's counts off the
// bucket it added them to, which that verify's advance already zeroed,
// and not off the verify's bucket, where the unsigned counters would wrap
// to 2^32−1 (the int64 counters once went to −1).
func TestChallengeRollbackAfterRingMoved(t *testing.T) {
	devices, err := fleet.Synthetic(1, 16, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := devices[0]
	clock := &fakeClock{t: time.Unix(1754650000, 0)}
	store, err := Open(StoreOptions{Shards: 1, Dir: t.TempDir(), CompactBytes: -1, TelemetryWindow: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	store.now = clock.now
	ff := injectFaults(store.shardFor(d.ID).wal)
	if _, err := store.Enroll(d.ID, d.Pairs, core.Case2); err != nil {
		t.Fatal(err)
	}
	nonce, ch, _, err := store.Challenge(d.ID, 2)
	if err != nil {
		t.Fatal(err)
	}
	ff.mu.Lock()
	ff.failSync = syscall.EIO
	ff.onSync = func() {
		clock.advance(2 * time.Minute)
		resp := bits.New(len(ch.Pairs))
		for range ch.Pairs {
			resp.Append(false)
		}
		if _, _, _, err := store.Verify(d.ID, nonce, resp); err != nil {
			t.Errorf("verify during the failing commit: %v", err)
		}
	}
	ff.mu.Unlock()
	if _, _, _, err := store.Challenge(d.ID, 2); !errors.Is(err, ErrPersist) {
		t.Fatalf("challenge with failing fsync = %v, want ErrPersist", err)
	}
	w := store.Windows(clock.now())
	if len(w) != 1 || w[0].Challenges != 0 || w[0].Pairs != 0 || w[0].Verifies != 1 {
		t.Fatalf("window after the rollback = %+v, want 0 challenges, 0 pairs, 1 verify", w)
	}
	if got := store.Telemetry(d.ID).ChallengesIssued; got != 1 {
		t.Fatalf("challenges issued after the rollback = %d, want 1", got)
	}
}
