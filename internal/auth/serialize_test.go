package auth

import (
	"bytes"
	"encoding/binary"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ropuf/internal/core"
	"ropuf/internal/recordio"
	"ropuf/internal/rngx"
)

var updateGolden = flag.Bool("update", false, "rewrite golden snapshot files")

func TestVerifierSaveLoadRoundtrip(t *testing.T) {
	v, rec, pairs := newTestVerifier(t)
	// Consume a challenge so used-state is non-trivial.
	ch, err := v.NewChallenge("dev0", 8)
	if err != nil {
		t.Fatal(err)
	}
	freshBefore, err := v.NumFresh("dev0")
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := v.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadVerifier(&buf, rngx.New(99))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Tolerance != v.Tolerance {
		t.Fatalf("tolerance changed: %g vs %g", restored.Tolerance, v.Tolerance)
	}
	freshAfter, err := restored.NumFresh("dev0")
	if err != nil {
		t.Fatal(err)
	}
	if freshAfter != freshBefore {
		t.Fatalf("consumed-pair state lost: %d fresh, want %d", freshAfter, freshBefore)
	}
	// The restored verifier must verify a genuine response to the old
	// challenge (challenge pairs were consumed, but verification of an
	// in-flight challenge still works against stored bits).
	prover := &Prover{Enrollment: rec.Enrollment}
	resp, err := prover.Respond(ch, pairs)
	if err != nil {
		t.Fatal(err)
	}
	ok, d, err := restored.Verify(ch, resp)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || d != 0 {
		t.Fatalf("restored verifier rejected genuine response (ok=%v d=%d)", ok, d)
	}
	// And issue fresh challenges that avoid consumed pairs.
	ch2, err := restored.NewChallenge("dev0", 8)
	if err != nil {
		t.Fatal(err)
	}
	usedOld := map[int]bool{}
	for _, i := range ch.Pairs {
		usedOld[i] = true
	}
	for _, i := range ch2.Pairs {
		if usedOld[i] {
			t.Fatalf("restored verifier reissued consumed pair %d", i)
		}
	}
}

func TestVerifierSaveLoadMultipleDevices(t *testing.T) {
	v, err := NewVerifier(0.1, rngx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if _, err := v.Enroll(id, fabPairs(uint64(id[0]), 16, 5), core.Case1); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := v.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadVerifier(&buf, rngx.New(6))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if _, err := restored.NumFresh(id); err != nil {
			t.Fatalf("device %q lost: %v", id, err)
		}
	}
}

// snapshotOf frames a header (version, tolerance, record count) and the
// given mutation records the way Save does, so tests can build snapshots
// Save would never write.
func snapshotOf(version byte, tolerance float64, count int, records ...[]byte) []byte {
	hdr := make([]byte, headerLen)
	hdr[0], hdr[1] = recHeader, version
	binary.LittleEndian.PutUint64(hdr[2:], math.Float64bits(tolerance))
	binary.LittleEndian.PutUint32(hdr[10:], uint32(count))
	out := recordio.Append(nil, hdr)
	for _, r := range records {
		out = recordio.Append(out, r)
	}
	return out
}

func mustRecord(t *testing.T) func([]byte, error) []byte {
	return func(p []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}

// A version-1 snapshot: the retired JSON format.
const jsonSnapshotV1 = `{
  "version": 1,
  "tolerance": 0.15,
  "devices": []
}
`

func TestLoadVerifierRejectsCorruption(t *testing.T) {
	v, rec, _ := newTestVerifier(t)
	if _, err := v.NewChallenge("dev0", 4); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := v.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := LoadVerifier(bytes.NewReader(good), rngx.New(1)); err != nil {
		t.Fatalf("good snapshot rejected: %v", err)
	}
	must := mustRecord(t)
	enroll := must(AppendEnrollRecord(nil, "dev0", rec.Enrollment))
	pairs := len(rec.Enrollment.Selections)

	cases := map[string][]byte{
		"garbage":                   []byte("{"),
		"v1 JSON snapshot":          []byte(jsonSnapshotV1),
		"empty":                     nil,
		"bad version":               snapshotOf(1, 0.15, 1, enroll),
		"bad tolerance":             snapshotOf(snapshotVersion, 0.9, 1, enroll),
		"NaN tolerance":             snapshotOf(snapshotVersion, math.NaN(), 1, enroll),
		"duplicate ID":              snapshotOf(snapshotVersion, 0.15, 2, enroll, enroll),
		"out-of-range consumed":     snapshotOf(snapshotVersion, 0.15, 2, enroll, must(AppendConsumeRecord(nil, "dev0", []int{1, pairs}))),
		"consume before enroll":     snapshotOf(snapshotVersion, 0.15, 2, must(AppendConsumeRecord(nil, "dev0", []int{1})), enroll),
		"unknown record type":       snapshotOf(snapshotVersion, 0.15, 1, []byte{9, 0, 0}),
		"header in place of enroll": snapshotOf(snapshotVersion, 0.15, 1, snapshotOf(snapshotVersion, 0.15, 0)[recordio.HeaderLen:]),
		"record past the count":     snapshotOf(snapshotVersion, 0.15, 0, enroll),
		"trailing garbage":          append(append([]byte(nil), good...), 0xAA),
		"corrupt checksum":          append(append([]byte(nil), good[:len(good)-1]...), good[len(good)-1]^1),
	}
	for name, data := range cases {
		if _, err := LoadVerifier(bytes.NewReader(data), rngx.New(1)); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
	// Truncation anywhere — mid-frame or exactly at a frame boundary —
	// must fail: the header's record count catches the clean cuts.
	for n := 0; n < len(good); n++ {
		if _, err := LoadVerifier(bytes.NewReader(good[:n]), rngx.New(1)); err == nil {
			t.Fatalf("snapshot truncated to %d of %d bytes accepted", n, len(good))
		}
	}
	if _, err := LoadVerifier(bytes.NewReader(good), nil); err == nil {
		t.Error("nil RNG accepted")
	}
}

// goldenVerifier is the fixed-seed verifier behind the snapshot golden:
// three devices, two with consumed pairs, one untouched.
func goldenVerifier(t testing.TB) *Verifier {
	v, err := NewVerifier(0.125, rngx.New(0x5A))
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"dev-c", "dev-a", "dev-b"} {
		if _, err := v.Enroll(id, fabPairs(uint64(0x5A0+i), 6, 4), core.Case2); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		id string
		k  int
	}{{"dev-a", 2}, {"dev-c", 1}, {"dev-a", 1}} {
		if _, err := v.NewChallenge(c.id, c.k); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

// TestSnapshotGolden pins the version-2 snapshot bytes, and that Save is
// a pure function of the verifier's state: a loaded snapshot saves back
// to the same bytes. Regenerate deliberately (and bump snapshotVersion)
// with:
//
//	go test ./internal/auth -run TestSnapshotGolden -update
func TestSnapshotGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenVerifier(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "snapshot_v2.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to generate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("snapshot bytes drifted from %s (%d bytes, want %d)", golden, buf.Len(), len(want))
	}
	loaded, err := LoadVerifier(bytes.NewReader(want), rngx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatal("a loaded snapshot does not save back to the same bytes")
	}
	for id, want := range map[string]int{"dev-a": 3, "dev-b": 0, "dev-c": 1} {
		rec, err := loaded.Device(id)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := loaded.NumFresh(id)
		if got := rec.Enrollment.NumBits() - fresh; got != want {
			t.Errorf("%s: %d consumed pairs after load, want %d", id, got, want)
		}
	}
}

// TestReplayLog pins the tolerant replay write-ahead-log recovery uses:
// records apply in order, an enroll the verifier already holds is
// skipped, a torn tail ends the valid prefix without error, and a whole
// frame that does not apply is an error.
func TestReplayLog(t *testing.T) {
	must := mustRecord(t)
	pairsA, pairsB := fabPairs(0x71, 8, 5), fabPairs(0x72, 8, 5)
	enrA, err := core.Enroll(pairsA, core.Case2, 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	enrB, err := core.Enroll(pairsB, core.Case2, 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var log []byte
	for _, p := range [][]byte{
		must(AppendEnrollRecord(nil, "a", enrA)),
		must(AppendConsumeRecord(nil, "a", []int{0, 3})),
		must(AppendEnrollRecord(nil, "b-high-bit-ÿ", enrB)),
		must(AppendEnrollRecord(nil, "a", enrA)), // already held: skipped
		must(AppendConsumeRecord(nil, "b-high-bit-ÿ", []int{7})),
	} {
		log = recordio.Append(log, p)
	}
	replay := func(data []byte) (*Verifier, int, int64, error) {
		v, err := NewVerifier(0.1, rngx.New(1))
		if err != nil {
			t.Fatal(err)
		}
		n, valid, err := v.ReplayLog(bytes.NewReader(data))
		return v, n, valid, err
	}

	v, n, valid, err := replay(log)
	if err != nil || n != 5 || valid != int64(len(log)) {
		t.Fatalf("clean log: %d records, valid %d of %d, err %v", n, valid, len(log), err)
	}
	if fa, _ := v.NumFresh("a"); fa != enrA.NumBits()-2 {
		t.Fatalf("device a has %d fresh pairs, want %d", fa, enrA.NumBits()-2)
	}
	if fb, _ := v.NumFresh("b-high-bit-ÿ"); fb != enrB.NumBits()-1 {
		t.Fatalf("device b has %d fresh pairs, want %d", fb, enrB.NumBits()-1)
	}
	if _, err := AppendConsumeRecord(nil, "a", []int{-1}); err == nil {
		t.Fatal("negative pair index encoded")
	}

	torn := append(append([]byte(nil), log...), recordio.Append(nil, must(AppendConsumeRecord(nil, "a", []int{5})))[:9]...)
	if _, n, valid, err = replay(torn); err != nil || n != 5 || valid != int64(len(log)) {
		t.Fatalf("torn tail: %d records, valid %d, err %v; want 5, %d, nil", n, valid, err, len(log))
	}

	for name, p := range map[string][]byte{
		"checksum-valid garbage":     {99, 0, 0},
		"snapshot header":            snapshotOf(snapshotVersion, 0.1, 0)[recordio.HeaderLen:],
		"consume for unknown device": must(AppendConsumeRecord(nil, "zzz", []int{1})),
		"out-of-range pair":          must(AppendConsumeRecord(nil, "a", []int{8})),
		"short consume":              must(AppendConsumeRecord(nil, "a", []int{1}))[:9],
	} {
		bad := recordio.Append(append([]byte(nil), log...), p)
		if _, n, valid, err := replay(bad); err == nil || n != 5 || valid != int64(len(log)) {
			t.Errorf("%s: %d records, valid %d, err %v; want an error after 5 records", name, n, valid, err)
		}
	}
}
