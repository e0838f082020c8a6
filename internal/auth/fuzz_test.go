package auth

import (
	"bytes"
	"runtime"
	"testing"

	"ropuf/internal/bits"
	"ropuf/internal/core"
	"ropuf/internal/recordio"
	"ropuf/internal/rngx"
)

// fuzzSeedVerifier builds a small verifier (two devices, a consumed
// challenge on one).
func fuzzSeedVerifier(t testing.TB) *Verifier {
	r := rngx.New(0xF0)
	v, err := NewVerifier(0.1, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"dev-a", "dev-b"} {
		pairs := make([]core.Pair, 8)
		for p := range pairs {
			alpha := make([]float64, 5)
			beta := make([]float64, 5)
			for s := range alpha {
				alpha[s] = 200 + 5*r.Norm()
				beta[s] = 200 + 5*r.Norm()
			}
			pairs[p] = core.Pair{Alpha: alpha, Beta: beta}
		}
		if _, err := v.Enroll(id, pairs, core.Case2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.NewChallenge("dev-a", 3); err != nil {
		t.Fatal(err)
	}
	return v
}

// saved returns v's snapshot bytes.
func saved(t testing.TB, v *Verifier) []byte {
	var buf bytes.Buffer
	if err := v.Save(&buf); err != nil {
		t.Fatalf("saving verifier: %v", err)
	}
	return buf.Bytes()
}

// exercise drives a decoded verifier's read and challenge paths: state
// that decoded must behave like a live verifier, not panic later.
func exercise(t *testing.T, v *Verifier) {
	for _, id := range v.DeviceIDs() {
		n, err := v.NumFresh(id)
		if err != nil {
			t.Fatalf("NumFresh(%q) on loaded verifier: %v", id, err)
		}
		if n == 0 {
			continue
		}
		ch, err := v.NewChallenge(id, 1)
		if err != nil {
			t.Fatalf("NewChallenge(%q) with %d fresh pairs: %v", id, n, err)
		}
		rec, err := v.Device(id)
		if err != nil {
			t.Fatalf("Device(%q): %v", id, err)
		}
		resp := bits.New(len(ch.Pairs))
		for _, i := range ch.Pairs {
			resp.Append(rec.Bit(i))
		}
		ok, d, err := v.Verify(ch, resp)
		if err != nil {
			t.Fatalf("Verify(%q) with reference bits: %v", id, err)
		}
		if !ok || d != 0 {
			t.Fatalf("reference response rejected: ok=%v d=%d", ok, d)
		}
	}
}

// FuzzLoadVerifier asserts that arbitrary (corrupted) snapshot bytes
// either load into a fully consistent verifier or return an error — never
// panic — and that anything that loads survives a Save/Load round trip
// and normal challenge traffic. The committed corpus entry is a mangled
// version-1 JSON snapshot, which must stay rejected.
func FuzzLoadVerifier(f *testing.F) {
	seed := saved(f, fuzzSeedVerifier(f))
	f.Add(seed)
	// Structural mutations of the good seed: truncation, header damage.
	f.Add(seed[:len(seed)/2])
	f.Add(snapshotOf(1, 0.1, 0))
	f.Add(snapshotOf(snapshotVersion, 0.6, 0))
	f.Add(snapshotOf(snapshotVersion, 0.1, 1, []byte{recConsume, 1, 0, 'x', 0, 0, 0, 0}))
	f.Add([]byte(jsonSnapshotV1))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := LoadVerifier(bytes.NewReader(data), rngx.New(1))
		if err != nil {
			return // rejected corrupt input: exactly what we want
		}
		if len(data) > 0 && data[0] == '{' {
			t.Fatal("a JSON (version 1) snapshot loaded")
		}
		// A loaded verifier must round-trip: Save output is valid input
		// and saves back to the same bytes.
		first := saved(t, v)
		again, err := LoadVerifier(bytes.NewReader(first), rngx.New(2))
		if err != nil {
			t.Fatalf("reloading saved verifier: %v", err)
		}
		if !bytes.Equal(saved(t, again), first) {
			t.Fatal("re-saved snapshot differs")
		}
		exercise(t, v)
	})
}

// fuzzSeedLog is a write-ahead log as the store writes one: enrolls and
// consumes, one record per mutation.
func fuzzSeedLog(t testing.TB) []byte {
	v := fuzzSeedVerifier(t)
	var log []byte
	for _, id := range v.DeviceIDs() {
		p, err := v.AppendEnrollRecord(nil, id)
		if err != nil {
			t.Fatal(err)
		}
		log = recordio.Append(log, p)
	}
	for _, pairs := range [][]int{{0, 2}, {5}} {
		p, err := AppendConsumeRecord(nil, "dev-b", pairs)
		if err != nil {
			t.Fatal(err)
		}
		log = recordio.Append(log, p)
	}
	return log
}

// FuzzReplayLog feeds arbitrary bytes through the tolerant replay that
// write-ahead-log recovery uses. It must never panic, never allocate
// beyond a small multiple of its input (a hostile length or count must
// not size an allocation), and whatever prefix it reports valid must
// replay again to the same state with no tear.
func FuzzReplayLog(f *testing.F) {
	log := fuzzSeedLog(f)
	f.Add(log)
	f.Add(log[:len(log)-3])                                    // torn tail
	f.Add(append(log[:len(log):len(log)], make([]byte, 8)...)) // zeroed tail
	f.Add(recordio.Append(nil, []byte{99, 0, 0}))              // checksum-valid garbage
	// An enroll whose enrollment claims 2^24-1 selections in 21 bytes.
	f.Add(recordio.Append(nil, []byte{recEnroll, 1, 0, 'x', 0xE5, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0, 13, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		v, err := NewVerifier(0.1, rngx.New(1))
		if err != nil {
			t.Fatal(err)
		}
		n, valid, err := v.ReplayLog(bytes.NewReader(data))
		runtime.ReadMemStats(&ms)
		if grew := ms.TotalAlloc - before; grew > 1<<20+64*uint64(len(data)) {
			t.Fatalf("replaying %d bytes allocated %d bytes", len(data), grew)
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		if err != nil {
			return
		}
		again, err := NewVerifier(0.1, rngx.New(1))
		if err != nil {
			t.Fatal(err)
		}
		n2, valid2, err := again.ReplayLog(bytes.NewReader(data[:valid]))
		if err != nil || n2 != n || valid2 != valid {
			t.Fatalf("re-scanning the %d-byte valid prefix: %d records, valid %d, err %v; first pass %d records",
				valid, n2, valid2, err, n)
		}
		if !bytes.Equal(saved(t, again), saved(t, v)) {
			t.Fatal("the valid prefix replays to a different state")
		}
		exercise(t, v)
	})
}
