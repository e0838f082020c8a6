package authserve

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ropuf/internal/auth"
	"ropuf/internal/core"
	"ropuf/internal/fleet"
	"ropuf/internal/recordio"
	"ropuf/internal/rngx"
)

// appendSync submits one record and waits for its durability verdict,
// for tests that hold no shard lock.
func (w *wal) appendSync(payload []byte) error {
	pend, err := w.submit(payload)
	if err != nil {
		return err
	}
	return pend.wait()
}

// faultFile wraps a log's *os.File to inject real I/O errors. An armed
// error is returned by every matching call until it is disarmed, the way
// a failing disk keeps failing; a failing Write first writes half its
// buffer, the short write a full disk leaves behind. Sync calls are
// counted whether or not they fail, and each runs onSync, when set,
// before its verdict: what other requests do while a commit waits.
type faultFile struct {
	*os.File

	mu                             sync.Mutex
	failWrite, failSync, failTrunc error
	syncs                          int
	onSync                         func()
}

// injectFaults puts a faultFile under w. Call it before the log sees
// traffic from other goroutines: whichever waiter leads a commit reads
// w.f without a lock.
func injectFaults(w *wal) *faultFile {
	ff := &faultFile{File: w.f.(*os.File)}
	w.f = ff
	return ff
}

// fault arms (or, with nil, disarms) one of the failure fields.
func (f *faultFile) fault(call *error, err error) {
	f.mu.Lock()
	*call = err
	f.mu.Unlock()
}

func (f *faultFile) armed(call *error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return *call
}

func (f *faultFile) Write(p []byte) (int, error) {
	if err := f.armed(&f.failWrite); err != nil {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, err
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	f.mu.Lock()
	f.syncs++
	err, hook := f.failSync, f.onSync
	f.mu.Unlock()
	if hook != nil {
		hook()
	}
	if err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if err := f.armed(&f.failTrunc); err != nil {
		return err
	}
	return f.File.Truncate(size)
}

func (f *faultFile) syncCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncs
}

// replayTarget returns a verifier for a WAL to replay into, with the
// given devices enrolled (16 pairs each) so consume records for them
// apply.
func replayTarget(t *testing.T, ids ...string) *auth.Verifier {
	t.Helper()
	v, err := auth.NewVerifier(0.1, rngx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	devices, err := fleet.Synthetic(1, 16, 5, 0x7E)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, err := v.Enroll(id, devices[0].Pairs, core.Case2); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

// consumed returns how many of id's pairs v has marked used.
func consumed(t *testing.T, v *auth.Verifier, id string) int {
	t.Helper()
	rec, err := v.Device(id)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := v.NumFresh(id)
	return rec.NumBits() - fresh
}

// frames scans a WAL file's bytes with recordio alone, returning the
// whole frames' payloads and the prefix they span.
func frames(t *testing.T, data []byte) (payloads [][]byte, valid int64) {
	t.Helper()
	rd := recordio.NewReader(bytes.NewReader(data))
	for {
		p, err := rd.Next()
		if err == io.EOF {
			return payloads, rd.Offset()
		}
		if err != nil {
			t.Fatalf("scanning WAL: %v", err)
		}
		payloads = append(payloads, append([]byte(nil), p...))
	}
}

// TestScanWALTornTails runs the torn-tail table through WAL recovery
// itself: every way a crash can cut the log short is truncated back to
// the records before it, which replay; a frame whose checksum verifies
// but whose payload is garbage fails recovery loudly and leaves the file
// untouched. recordio's TestReaderTornTails covers the frame cases in
// full.
func TestScanWALTornTails(t *testing.T) {
	r1 := recordio.Append(nil, mustConsume(t, "alpha", []int{1, 2}))
	r2 := recordio.Append(nil, mustConsume(t, "beta", []int{3}))
	both := append(append([]byte(nil), r1...), r2...)
	corruptChecksum := append([]byte(nil), both...)
	corruptChecksum[len(r1)+recordio.HeaderLen] ^= 0xFF
	zeroLen := append(append([]byte(nil), r1...), make([]byte, recordio.HeaderLen)...)

	cases := []struct {
		name      string
		data      []byte
		wantRecs  int
		wantValid int64
		wantErr   bool
	}{
		{"empty file", nil, 0, 0, false},
		{"two clean records", both, 2, int64(len(both)), false},
		{"partial header", both[:len(r1)+3], 1, int64(len(r1)), false},
		{"partial payload", both[:len(both)-1], 1, int64(len(r1)), false},
		{"corrupt checksum", corruptChecksum, 1, int64(len(r1)), false},
		{"zeroed tail", zeroLen, 1, int64(len(r1)), false},
		{"mid-file garbage with valid frame", append(recordio.Append(nil, []byte{99, 0, 0}), r1...), 0, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "shard.wal")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			v := replayTarget(t, "alpha", "beta")
			w, recs, torn, err := openWAL(path, FsyncAlways, v)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tc.wantErr)
			}
			if err != nil {
				if data, _ := os.ReadFile(path); !bytes.Equal(data, tc.data) {
					t.Fatal("recovery refused the log but still changed the file")
				}
				return
			}
			defer w.close()
			if recs != tc.wantRecs || w.committedSize() != tc.wantValid || torn != int64(len(tc.data))-tc.wantValid {
				t.Fatalf("got %d records, valid %d, torn %d; want %d records, valid %d",
					recs, w.committedSize(), torn, tc.wantRecs, tc.wantValid)
			}
			if fi, _ := os.Stat(path); fi.Size() != tc.wantValid {
				t.Fatalf("file is %d bytes after recovery, want %d", fi.Size(), tc.wantValid)
			}
			if tc.wantRecs > 0 && consumed(t, v, "alpha") != 2 {
				t.Fatalf("alpha has %d consumed pairs after replay, want 2", consumed(t, v, "alpha"))
			}
		})
	}
}

// TestOpenWALTruncatesAndAppends pins the recovery-then-append cycle: a
// torn tail is physically truncated at open, and new appends continue
// from the valid prefix so a second recovery sees old + new records.
func TestOpenWALTruncatesAndAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.wal")
	torn := append(recordio.Append(nil, mustConsume(t, "alpha", []int{1})), 0xAB, 0xCD, 0xEF) // record + torn tail
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	w, recs, tornBytes, err := openWAL(path, FsyncAlways, replayTarget(t, "alpha", "beta"))
	if err != nil {
		t.Fatal(err)
	}
	if recs != 1 || tornBytes != 3 {
		t.Fatalf("recovered %d records, %d torn bytes; want 1, 3", recs, tornBytes)
	}
	if fi, _ := os.Stat(path); fi.Size() != w.committedSize() {
		t.Fatalf("file is %d bytes after truncation, wal thinks %d", fi.Size(), w.committedSize())
	}

	if err := w.appendSync(mustConsume(t, "beta", []int{2, 3})); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	v := replayTarget(t, "alpha", "beta")
	w, recs, tornBytes, err = openWAL(path, FsyncAlways, v)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if recs != 2 || tornBytes != 0 {
		t.Fatalf("after append: %d records, %d torn; want 2, 0", recs, tornBytes)
	}
	if consumed(t, v, "beta") != 2 {
		t.Fatalf("appended record replayed %d consumed pairs for beta, want 2", consumed(t, v, "beta"))
	}
}

func TestWALReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.wal")
	w, _, _, err := openWAL(path, FsyncAlways, replayTarget(t))
	if err != nil {
		t.Fatal(err)
	}
	p := mustConsume(t, "d", []int{1})
	if err := w.appendSync(p); err != nil {
		t.Fatal(err)
	}
	if w.committedSize() == 0 {
		t.Fatal("append did not grow the log")
	}
	if err := w.reset(); err != nil {
		t.Fatal(err)
	}
	if w.committedSize() != 0 {
		t.Fatalf("size %d after reset", w.committedSize())
	}
	if fi, _ := os.Stat(path); fi.Size() != 0 {
		t.Fatalf("file %d bytes after reset", fi.Size())
	}
	// The log stays usable after a reset.
	if err := w.appendSync(p); err != nil {
		t.Fatal(err)
	}
	w.close()
	w, recs, _, err := openWAL(path, FsyncAlways, replayTarget(t, "d"))
	if err != nil || recs != 1 {
		t.Fatalf("post-reset append: %d records, %v", recs, err)
	}
	w.close()
}

// TestWALCloseAnswersQueued pins close's contract with a record nobody
// has waited on yet: close commits it, and the later wait() returns its
// nil verdict instead of parking forever on a log with no one left to
// lead.
func TestWALCloseAnswersQueued(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.wal")
	w, _, _, err := openWAL(path, FsyncAlways, replayTarget(t))
	if err != nil {
		t.Fatal(err)
	}
	pend, err := w.submit(mustConsume(t, "d", []int{1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	if err := pend.wait(); err != nil {
		t.Fatalf("verdict on a record queued before close = %v, want nil", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if recs, valid := frames(t, data); len(recs) != 1 || valid != int64(len(data)) {
		t.Fatalf("after close: %d records, valid %d of %d bytes; want the queued record", len(recs), valid, len(data))
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{"always": FsyncAlways, "": FsyncAlways, "off": FsyncOff} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}
