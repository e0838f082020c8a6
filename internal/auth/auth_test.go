package auth

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"ropuf/internal/bits"
	"ropuf/internal/core"
	"ropuf/internal/recordio"
	"ropuf/internal/rngx"
)

// fabPairs builds per-pair delay vectors for one synthetic device.
func fabPairs(seed uint64, numPairs, n int) []core.Pair {
	r := rngx.New(seed)
	pairs := make([]core.Pair, numPairs)
	for p := range pairs {
		alpha := make([]float64, n)
		beta := make([]float64, n)
		for i := 0; i < n; i++ {
			alpha[i] = 200 + 4*r.Norm()
			beta[i] = 200 + 4*r.Norm()
		}
		pairs[p] = core.Pair{Alpha: alpha, Beta: beta}
	}
	return pairs
}

// perturb adds Gaussian noise to every delay.
func perturb(pairs []core.Pair, sigma float64, seed uint64) []core.Pair {
	r := rngx.New(seed)
	out := make([]core.Pair, len(pairs))
	for i, p := range pairs {
		a := make([]float64, len(p.Alpha))
		b := make([]float64, len(p.Beta))
		for j := range a {
			a[j] = p.Alpha[j] + sigma*r.Norm()
			b[j] = p.Beta[j] + sigma*r.Norm()
		}
		out[i] = core.Pair{Alpha: a, Beta: b}
	}
	return out
}

// newTestVerifier enrolls one 64-pair device, "dev0", and returns the
// verifier, the device's enrollment (the prover's state) and its pairs.
func newTestVerifier(t *testing.T) (*Verifier, *core.Enrollment, []core.Pair) {
	t.Helper()
	v, err := NewVerifier(0.15, rngx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	pairs := fabPairs(2, 64, 7)
	enr, err := v.Enroll("dev0", pairs, core.Case2)
	if err != nil {
		t.Fatal(err)
	}
	return v, enr, pairs
}

func TestNewVerifierValidation(t *testing.T) {
	if _, err := NewVerifier(-0.1, rngx.New(1)); err == nil {
		t.Fatal("accepted negative tolerance")
	}
	if _, err := NewVerifier(0.5, rngx.New(1)); err == nil {
		t.Fatal("accepted tolerance >= 0.5")
	}
	if _, err := NewVerifier(0.1, nil); err == nil {
		t.Fatal("accepted nil RNG")
	}
}

func TestEnrollDuplicate(t *testing.T) {
	v, _, pairs := newTestVerifier(t)
	if _, err := v.Enroll("dev0", pairs, core.Case2); err == nil {
		t.Fatal("duplicate enrollment accepted")
	}
}

// TestEnrollIDRecordLimit pins that an ID is checked at enroll time
// against the u16 length field of a record: Enroll, ApplyEnroll and
// EnrollRecord refuse a 65,536-byte ID and hold no device, EnrollRecord
// before it runs any selection, while a 65,535-byte ID enrolls and
// survives Save and LoadVerifier.
func TestEnrollIDRecordLimit(t *testing.T) {
	pairs := fabPairs(3, 16, 7)
	enr, err := core.Enroll(pairs, core.Case2, 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVerifier(0.15, rngx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("d", math.MaxUint16+1)
	if _, err := v.Enroll(long, pairs, core.Case2); err == nil {
		t.Fatal("Enroll accepted a 65,536-byte ID")
	}
	if err := v.ApplyEnroll(long, enr); err == nil {
		t.Fatal("ApplyEnroll accepted a 65,536-byte ID")
	}
	// No pairs: only an ID check ahead of the selection names the limit.
	if _, _, err := v.EnrollRecord(nil, long, nil, core.Case2); err == nil || !strings.Contains(err.Error(), "record limit") {
		t.Fatalf("EnrollRecord of a 65,536-byte ID: %v, want the record limit", err)
	}
	if n := v.NumDevices(); n != 0 {
		t.Fatalf("NumDevices = %d after refused enrolls, want 0", n)
	}

	id := long[:math.MaxUint16]
	if _, err := v.Enroll(id, pairs, core.Case2); err != nil {
		t.Fatalf("Enroll of a 65,535-byte ID: %v", err)
	}
	var buf bytes.Buffer
	if err := v.Save(&buf); err != nil {
		t.Fatal(err)
	}
	w, err := LoadVerifier(&buf, rngx.New(2))
	if err != nil {
		t.Fatal(err)
	}
	d, err := w.Device(id)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumDevices() != 1 || d.NumPairs() != len(pairs) || d.NumBits() != enr.NumBits() {
		t.Fatalf("reloaded %d devices, %d pairs, %d bits; want 1, %d, %d",
			w.NumDevices(), d.NumPairs(), d.NumBits(), len(pairs), enr.NumBits())
	}
}

// TestUnenrollAllowsRetry pins the rollback of an Enroll whose durability
// write failed: the record goes, and the client's retry is not a duplicate.
func TestUnenrollAllowsRetry(t *testing.T) {
	v, _, pairs := newTestVerifier(t)
	if v.NumDevices() != 1 {
		t.Fatalf("NumDevices = %d, want 1", v.NumDevices())
	}
	if !v.Unenroll("dev0") {
		t.Fatal("Unenroll of an enrolled device reported false")
	}
	if v.NumDevices() != 0 {
		t.Fatalf("NumDevices after Unenroll = %d, want 0", v.NumDevices())
	}
	if _, err := v.Device("dev0"); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("Device after Unenroll: err = %v, want ErrUnknownDevice", err)
	}
	if v.Unenroll("dev0") {
		t.Fatal("second Unenroll reported the device as present")
	}
	if _, err := v.Enroll("dev0", pairs, core.Case2); err != nil {
		t.Fatalf("re-enrollment after Unenroll: %v", err)
	}
}

// TestUnmarkUsedReturnsPairs pins the rollback of a NewChallenge whose
// durability write failed: the consumed pairs become fresh again, and a bad
// index changes nothing.
func TestUnmarkUsedReturnsPairs(t *testing.T) {
	v, _, _ := newTestVerifier(t)
	before, err := v.NumFresh("dev0")
	if err != nil {
		t.Fatal(err)
	}
	ch, err := v.NewChallenge("dev0", 8)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := v.NumFresh("dev0"); n != before-8 {
		t.Fatalf("NumFresh after challenge = %d, want %d", n, before-8)
	}
	bad := append([]int{ch.Pairs[0]}, 64)
	if err := v.UnmarkUsed("dev0", bad); err == nil {
		t.Fatal("UnmarkUsed accepted an out-of-range pair index")
	}
	if n, _ := v.NumFresh("dev0"); n != before-8 {
		t.Fatalf("rejected UnmarkUsed changed NumFresh to %d, want %d", n, before-8)
	}
	if err := v.UnmarkUsed("ghost", ch.Pairs); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("UnmarkUsed for unknown device: err = %v", err)
	}
	if err := v.UnmarkUsed("dev0", ch.Pairs); err != nil {
		t.Fatal(err)
	}
	if n, _ := v.NumFresh("dev0"); n != before {
		t.Fatalf("NumFresh after UnmarkUsed = %d, want %d", n, before)
	}
}

func TestGenuineDeviceAccepted(t *testing.T) {
	v, enr, pairs := newTestVerifier(t)
	prover := &Prover{Enrollment: enr}
	ch, err := v.NewChallenge("dev0", 16)
	if err != nil {
		t.Fatal(err)
	}
	// Small measurement noise: bits hold, device accepted.
	resp, err := prover.Respond(ch, perturb(pairs, 0.2, 9))
	if err != nil {
		t.Fatal(err)
	}
	ok, d, err := v.Verify(ch, resp)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("genuine device rejected (HD=%d)", d)
	}
}

func TestImpostorRejected(t *testing.T) {
	v, enr, _ := newTestVerifier(t)
	// Impostor: different silicon, same stolen configurations.
	impostor := &Prover{Enrollment: enr}
	otherSilicon := fabPairs(777, 64, 7)
	ch, err := v.NewChallenge("dev0", 32)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := impostor.Respond(ch, otherSilicon)
	if err != nil {
		t.Fatal(err)
	}
	ok, d, err := v.Verify(ch, resp)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("impostor accepted (HD=%d of 32)", d)
	}
	// Expect roughly half the bits wrong.
	if d < 8 {
		t.Fatalf("impostor HD=%d of 32 suspiciously low", d)
	}
}

func TestChallengesAreSingleUse(t *testing.T) {
	v, _, _ := newTestVerifier(t)
	seen := map[int]bool{}
	total := 0
	for {
		ch, err := v.NewChallenge("dev0", 8)
		if err != nil {
			break // pool exhausted
		}
		for _, i := range ch.Pairs {
			if seen[i] {
				t.Fatalf("pair %d issued twice", i)
			}
			seen[i] = true
			total++
		}
	}
	if total != 64 {
		t.Fatalf("consumed %d pairs, want 64", total)
	}
	if n, err := v.NumFresh("dev0"); err != nil || n != 0 {
		t.Fatalf("NumFresh = %d/%v after exhaustion", n, err)
	}
}

func TestChallengeValidation(t *testing.T) {
	v, _, _ := newTestVerifier(t)
	if _, err := v.NewChallenge("ghost", 4); err == nil {
		t.Fatal("challenge for unknown device accepted")
	}
	if _, err := v.NewChallenge("dev0", 0); err == nil {
		t.Fatal("zero-length challenge accepted")
	}
	if _, err := v.NewChallenge("dev0", 1000); err == nil {
		t.Fatal("oversized challenge accepted")
	}
	if _, err := v.NumFresh("ghost"); err == nil {
		t.Fatal("NumFresh for unknown device accepted")
	}
}

func TestVerifyValidation(t *testing.T) {
	v, enr, pairs := newTestVerifier(t)
	ch, err := v.NewChallenge("dev0", 8)
	if err != nil {
		t.Fatal(err)
	}
	prover := &Prover{Enrollment: enr}
	resp, err := prover.Respond(ch, pairs)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong length response.
	if _, _, err := v.Verify(ch, resp.Slice(0, 4)); err == nil {
		t.Fatal("short response accepted")
	}
	// Unknown device in challenge.
	bad := &Challenge{DeviceID: "ghost", Pairs: ch.Pairs}
	if _, _, err := v.Verify(bad, resp); err == nil {
		t.Fatal("unknown device verified")
	}
	// Out-of-range pair index.
	bad2 := &Challenge{DeviceID: "dev0", Pairs: []int{9999}}
	if _, _, err := v.Verify(bad2, bits.MustFromString("1")); err == nil {
		t.Fatal("out-of-range pair index accepted")
	}
}

func TestProverValidation(t *testing.T) {
	_, enr, pairs := newTestVerifier(t)
	p := &Prover{Enrollment: enr}
	ch := &Challenge{DeviceID: "dev0", Pairs: []int{0, 1}}
	if _, err := p.Respond(ch, pairs[:3]); err == nil {
		t.Fatal("wrong measurement count accepted")
	}
	bad := &Challenge{DeviceID: "dev0", Pairs: []int{-1}}
	if _, err := p.Respond(bad, pairs); err == nil {
		t.Fatal("negative pair index accepted")
	}
}

func TestExactResponseHasZeroDistance(t *testing.T) {
	v, enr, pairs := newTestVerifier(t)
	prover := &Prover{Enrollment: enr}
	ch, err := v.NewChallenge("dev0", 16)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := prover.Respond(ch, pairs) // same measurements as enrollment
	if err != nil {
		t.Fatal(err)
	}
	ok, d, err := v.Verify(ch, resp)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || d != 0 {
		t.Fatalf("noiseless response: ok=%v d=%d, want true/0", ok, d)
	}
}

// TestVerifierHeapBudget bounds the live heap one stored device costs, in
// the style of TestStreamVTAllocBudget: 2,000 Case-2 devices of 128 pairs
// × 13 stages, read after two GCs once they are enrolled and again once
// their log has replayed into a fresh verifier. A device holds its enroll
// record body (1,717 B here) and three bitsets; a decoded core.Enrollment
// per device cost about 14 KB.
func TestVerifierHeapBudget(t *testing.T) {
	const devices, budget = 2000, 2500
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	check := func(phase string, grew int64) {
		t.Helper()
		perDevice := grew / devices
		t.Logf("live heap after %s: %d B per device", phase, perDevice)
		if perDevice > budget {
			t.Errorf("live heap after %s: %d B per device, budget %d", phase, perDevice, budget)
		}
	}

	before := live()
	v, err := NewVerifier(0.1, rngx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < devices; i++ {
		if _, err := v.Enroll(fmt.Sprintf("dev-%04d", i), fabPairs(uint64(i), 128, 13), core.Case2); err != nil {
			t.Fatal(err)
		}
	}
	check("Enroll", live()-before)

	var log []byte
	for _, id := range v.DeviceIDs() {
		p, err := v.AppendEnrollRecord(nil, id)
		if err != nil {
			t.Fatal(err)
		}
		log = recordio.Append(log, p)
	}
	v = nil
	before = live()
	replayed, err := NewVerifier(0.1, rngx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if n, _, err := replayed.ReplayLog(bytes.NewReader(log)); err != nil || n != devices {
		t.Fatalf("replayed %d records, err %v", n, err)
	}
	check("ReplayLog", live()-before)
	runtime.KeepAlive(log)
	runtime.KeepAlive(replayed)
}
