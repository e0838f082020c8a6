package auth

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ropuf/internal/core"
	"ropuf/internal/recordio"
	"ropuf/internal/rngx"
)

var updateGolden = flag.Bool("update", false, "rewrite golden snapshot files")

func TestVerifierSaveLoadRoundtrip(t *testing.T) {
	v, enr, pairs := newTestVerifier(t)
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
	prover := &Prover{Enrollment: enr}
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

// appendEnrollRecord appends the record of enrolling id with enr to dst,
// as a log writer holding the enrollment would write it.
func appendEnrollRecord(dst []byte, id string, enr *core.Enrollment) ([]byte, error) {
	dst, err := appendRecordHead(dst, recEnroll, id, 0)
	if err != nil {
		return nil, err
	}
	return enr.AppendBinary(dst)
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
	v, enr, _ := newTestVerifier(t)
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
	enroll := must(appendEnrollRecord(nil, "dev0", enr))
	pairs := len(enr.Selections)

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
		if got := rec.NumBits() - fresh; got != want {
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
		must(appendEnrollRecord(nil, "a", enrA)),
		must(AppendConsumeRecord(nil, "a", []int{0, 3})),
		must(appendEnrollRecord(nil, "b-high-bit-ÿ", enrB)),
		must(appendEnrollRecord(nil, "a", enrA)), // already held: skipped
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

// TestReplayEveryPrefix replays every prefix of a seeded log of enrolls
// and consumes over 32 devices — cut at each record boundary and at a
// point inside each frame — into a fresh verifier, and checks the result
// against a reference model that decodes each enroll with
// core.LoadEnrollmentBinary and keeps used pairs as []bool: the device
// set, NumFresh, every pair's reference bit, and the Save bytes, which
// must equal the model's re-encoded snapshot. The log also re-logs
// enrolls already applied and consumes of used and masked pairs, as a
// log replayed over a snapshot holds them.
func TestReplayEveryPrefix(t *testing.T) {
	const devices, tolerance = 32, 0.1
	type modelDevice struct {
		enr  *core.Enrollment
		used []bool
	}
	model := map[string]*modelDevice{}
	var ids []string // enrolled, in enroll order

	// snapshot is the model's state re-encoded the way Save lays it out.
	snapshot := func() []byte {
		var records [][]byte
		for _, id := range slices.Sorted(maps.Keys(model)) {
			d := model[id]
			p, err := appendEnrollRecord(nil, id, d.enr)
			if err != nil {
				t.Fatal(err)
			}
			records = append(records, p)
			var used []int
			for i, u := range d.used {
				if u {
					used = append(used, i)
				}
			}
			if len(used) > 0 {
				p, err := AppendConsumeRecord(nil, id, used)
				if err != nil {
					t.Fatal(err)
				}
				records = append(records, p)
			}
		}
		return snapshotOf(snapshotVersion, tolerance, len(records), records...)
	}

	// Build the script and the model's state after each of its records.
	r := rngx.New(0x5EED)
	var log []byte
	bounds := []int{0}
	want := [][]byte{snapshot()}
	states := []map[string]*modelDevice{{}}
	for len(ids) < devices || len(bounds) < 4*devices {
		var p []byte
		var err error
		switch c := r.Float64(); {
		case len(ids) < devices && (len(ids) == 0 || c < 0.3):
			id := fmt.Sprintf("dev-%02d", len(ids))
			mode := core.Case1 + core.Mode(r.Intn(2))
			pairs := fabPairs(r.Uint64(), 5+r.Intn(140), 3+r.Intn(12))
			enr, err := core.Enroll(pairs, mode, 0, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Mask the pairs below a random one's margin.
			threshold := enr.Selections[r.Intn(len(pairs))].Margin
			if enr, err = core.Enroll(pairs, mode, threshold, core.Options{}); err != nil {
				t.Fatal(err)
			}
			if p, err = appendEnrollRecord(nil, id, enr); err != nil {
				t.Fatal(err)
			}
			if enr, err = core.LoadEnrollmentBinary(p[3+len(id):]); err != nil {
				t.Fatal(err)
			}
			model[id] = &modelDevice{enr: enr, used: make([]bool, len(enr.Selections))}
			ids = append(ids, id)
		case c < 0.4:
			id := ids[r.Intn(len(ids))]
			p, err = appendEnrollRecord(nil, id, model[id].enr) // already held: skipped
		default:
			id := ids[r.Intn(len(ids))]
			d := model[id]
			pairs := make([]int, 1+r.Intn(8))
			for i := range pairs {
				pairs[i] = r.Intn(len(d.used))
				d.used[pairs[i]] = true
			}
			p, err = AppendConsumeRecord(nil, id, pairs)
		}
		if err != nil {
			t.Fatal(err)
		}
		log = recordio.Append(log, p)
		bounds = append(bounds, len(log))
		want = append(want, snapshot())
		state := map[string]*modelDevice{}
		for id, d := range model {
			state[id] = &modelDevice{enr: d.enr, used: slices.Clone(d.used)}
		}
		states = append(states, state)
	}

	check := func(cut, records int) {
		t.Helper()
		v, err := NewVerifier(tolerance, rngx.New(1))
		if err != nil {
			t.Fatal(err)
		}
		n, valid, err := v.ReplayLog(bytes.NewReader(log[:cut]))
		if err != nil || n != records || valid != int64(bounds[records]) {
			t.Fatalf("cut at %d: %d records, valid %d, err %v; want %d records, valid %d",
				cut, n, valid, err, records, bounds[records])
		}
		state := states[records]
		if got, wantIDs := v.DeviceIDs(), slices.Sorted(maps.Keys(state)); !slices.Equal(got, wantIDs) {
			t.Fatalf("cut at %d: devices %v, model %v", cut, got, wantIDs)
		}
		for id, d := range state {
			fresh := 0
			for i, u := range d.used {
				if !u && d.enr.Mask[i] {
					fresh++
				}
			}
			if got, _ := v.NumFresh(id); got != fresh {
				t.Fatalf("cut at %d: %s has %d fresh pairs, model %d", cut, id, got, fresh)
			}
			rec, err := v.Device(id)
			if err != nil {
				t.Fatal(err)
			}
			if rec.NumPairs() != len(d.enr.Selections) || rec.NumBits() != d.enr.NumBits() {
				t.Fatalf("cut at %d: %s has %d pairs, %d bits; model %d, %d",
					cut, id, rec.NumPairs(), rec.NumBits(), len(d.enr.Selections), d.enr.NumBits())
			}
			for i, sel := range d.enr.Selections {
				if rec.Bit(i) != sel.Bit {
					t.Fatalf("cut at %d: %s pair %d reference bit %v, model %v", cut, id, i, rec.Bit(i), sel.Bit)
				}
			}
		}
		if got := saved(t, v); !bytes.Equal(got, want[records]) {
			t.Fatalf("cut at %d: Save gives %d bytes that differ from the model's %d", cut, len(got), len(want[records]))
		}
	}
	for j, b := range bounds {
		check(b, j)
		if j+1 < len(bounds) {
			check(b+1+r.Intn(bounds[j+1]-b-1), j) // inside frame j+1: a torn tail
		}
	}
}
