package authserve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"ropuf/internal/auth"
	"ropuf/internal/core"
	"ropuf/internal/fleet"
	"ropuf/internal/recordio"
)

// gateCommitter blocks the wal's first group commit inside its onCommit
// callback (after any callback already installed, such as the store's
// bookkeeping) until the returned release func is called, recording
// every batch's record count. The leader parks holding the commit token,
// so every new submit lands in the next open batch — the deterministic
// way to build a multi-record batch without racing the (very fast)
// commit.
func gateCommitter(w *wal) (sizes func() []int, parked <-chan struct{}, release func()) {
	var mu sync.Mutex
	var got []int
	gate := make(chan struct{})
	entered := make(chan struct{})
	var first atomic.Bool
	prev := w.onCommit
	w.onCommit = func(records int, bytes, size int64, d time.Duration) {
		if prev != nil {
			prev(records, bytes, size, d)
		}
		mu.Lock()
		got = append(got, records)
		mu.Unlock()
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-gate
		}
	}
	sizes = func() []int {
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), got...)
	}
	return sizes, entered, func() { close(gate) }
}

// waitForWaiters polls until n callers are parked on the wal (or fails
// the test): submit increments the counter before the caller can park,
// so reaching n means all n records are in the open batch.
func waitForWaiters(t *testing.T, w *wal, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for w.waiters.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters parked on the WAL", w.waiters.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCommitBatching pins the core group-commit property: records
// submitted while a commit is in flight share the NEXT commit — one
// write+fsync for all of them — and every waiter still gets a nil
// verdict and a durable record.
func TestGroupCommitBatching(t *testing.T) {
	const queued = 16
	path := filepath.Join(t.TempDir(), "shard.wal")
	w, _, _, err := openWAL(path, FsyncAlways, replayTarget(t))
	if err != nil {
		t.Fatal(err)
	}
	sizes, parked, release := gateCommitter(w)

	// Record 0 commits alone: its waiter leads and parks inside onCommit.
	lead, err := w.submit(mustConsume(t, "lead", []int{0}))
	if err != nil {
		t.Fatal(err)
	}
	leadErr := make(chan error, 1)
	go func() { leadErr <- lead.wait() }()
	<-parked

	// Sixteen appends queue behind the parked leader.
	var wg sync.WaitGroup
	errs := make([]error, queued)
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.appendSync(mustConsume(t, fmt.Sprintf("dev-%02d", i), []int{i}))
		}(i)
	}
	// lead's waiter (parked in its own commit) + the queued.
	waitForWaiters(t, w, queued+1)
	release()
	wg.Wait()
	if err := <-leadErr; err != nil {
		t.Fatalf("lead record verdict: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("queued record %d verdict: %v", i, err)
		}
	}

	got := sizes()
	if len(got) != 2 || got[0] != 1 || got[1] != queued {
		t.Fatalf("commit batch sizes = %v, want [1 %d] (records queued behind a commit must share one fsync)", got, queued)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	// All 17 records are durably on disk, record-aligned.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, valid := frames(t, data)
	if len(recs) != queued+1 || valid != int64(len(data)) {
		t.Fatalf("on disk: %d records, valid %d of %d bytes", len(recs), valid, len(data))
	}
}

// TestGroupCommitFlushBarrier pins the compaction barrier: flush must
// not return while any previously submitted record lacks a verdict —
// including a batch already mid-commit — and must return nil once
// everything queued is durable.
func TestGroupCommitFlushBarrier(t *testing.T) {
	w, _, _, err := openWAL(filepath.Join(t.TempDir(), "shard.wal"), FsyncAlways, replayTarget(t))
	if err != nil {
		t.Fatal(err)
	}
	// Idle log: the barrier is immediate.
	if err := w.flush(); err != nil {
		t.Fatalf("flush on idle WAL: %v", err)
	}

	_, parked, release := gateCommitter(w)
	lead, err := w.submit(mustConsume(t, "lead", []int{0}))
	if err != nil {
		t.Fatal(err)
	}
	leadErr := make(chan error, 1)
	go func() { leadErr <- lead.wait() }()
	<-parked // lead committed; its waiter parked inside onCommit
	queued, err := w.submit(mustConsume(t, "queued", []int{1}))
	if err != nil {
		t.Fatal(err)
	}

	flushed := make(chan error, 1)
	go func() { flushed <- w.flush() }()
	select {
	case err := <-flushed:
		t.Fatalf("flush returned (%v) while a record had no durability verdict", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatalf("flush after release: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("flush never returned after the leader resumed")
	}
	if err := <-leadErr; err != nil {
		t.Fatal(err)
	}
	if err := queued.wait(); err != nil {
		t.Fatal(err)
	}
	w.close()
}

// TestGroupCommitSyncEIOFailsWholeBatch pins the failure model against a
// real fsync error. Sync returns EIO after the batch's Write succeeded:
// every waiter in the batch gets ErrPersist and rolls back only its own
// mutation (a later record may depend on an earlier one, so no record of
// the batch may commit), the file is cut back to the committed prefix,
// the log latches broken, and the batches committed before it survive
// replay.
func TestGroupCommitSyncEIOFailsWholeBatch(t *testing.T) {
	devices, err := fleet.Synthetic(4, 8, 7, 0x15A)
	if err != nil {
		t.Fatal(err)
	}
	prior, lead, batch := devices[0], devices[1], devices[2:]
	dir := t.TempDir()
	opt := StoreOptions{Shards: 1, Dir: dir, CompactBytes: -1}
	store, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sh := store.shards[0]
	ff := injectFaults(sh.wal)

	// Two acknowledged batches before the fault: an enroll and a challenge.
	if _, err := store.Enroll(prior.ID, prior.Pairs, core.Case2); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := store.Challenge(prior.ID, 2); err != nil {
		t.Fatal(err)
	}
	before, err := store.Device(prior.ID)
	if err != nil {
		t.Fatal(err)
	}

	// The lead enroll commits alone and parks inside its own commit, so
	// the three mutations below queue into one batch.
	_, parked, release := gateCommitter(sh.wal)
	leadErr := make(chan error, 1)
	go func() {
		_, err := store.Enroll(lead.ID, lead.Pairs, core.Case2)
		leadErr <- err
	}()
	<-parked
	committed := sh.wal.committedSize()
	ff.fault(&ff.failSync, syscall.EIO)

	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i, d := range batch {
		wg.Add(1)
		go func(i int, d fleet.Device) {
			defer wg.Done()
			_, errs[i] = store.Enroll(d.ID, d.Pairs, core.Case2)
		}(i, d)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _, errs[2] = store.Challenge(prior.ID, 2)
	}()
	waitForWaiters(t, sh.wal, 4) // the parked lead plus the batch
	release()
	wg.Wait()
	if err := <-leadErr; err != nil {
		t.Fatalf("lead was committed before the fault, must be acknowledged: %v", err)
	}
	for i, err := range errs {
		if !errors.Is(err, ErrPersist) {
			t.Fatalf("batch mutation %d = %v, want ErrPersist", i, err)
		}
	}

	// Each waiter rolled back its own mutation and nothing else.
	for _, d := range batch {
		if _, err := store.Device(d.ID); !errors.Is(err, auth.ErrUnknownDevice) {
			t.Fatalf("%s after its failed enroll = %v, want ErrUnknownDevice", d.ID, err)
		}
	}
	if _, err := store.Device(lead.ID); err != nil {
		t.Fatalf("lead rolled back with the failed batch: %v", err)
	}
	if after, _ := store.Device(prior.ID); after != before {
		t.Fatalf("prior device %+v after the failed challenge, want %+v", after, before)
	}

	// The file is cut back to the committed prefix, and the log is latched.
	if got := sh.wal.committedSize(); got != committed {
		t.Fatalf("committed size %d after the failed batch, want %d", got, committed)
	}
	if fi, err := os.Stat(walPathFor(dir, 0)); err != nil || fi.Size() != committed {
		t.Fatalf("WAL file after the failed batch: %v, %v; want %d bytes", fi.Size(), err, committed)
	}
	if err := sh.wal.flush(); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("flush after the failed commit = %v, want ErrWALBroken", err)
	}

	// The committed batches survive replay; the failed one left nothing.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	restored, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got, _ := restored.Device(prior.ID); got.Fresh != before.Fresh {
		t.Fatalf("prior device fresh=%d after replay, want %d", got.Fresh, before.Fresh)
	}
	if _, err := restored.Device(lead.ID); err != nil {
		t.Fatalf("lead lost in replay: %v", err)
	}
	for _, d := range batch {
		if _, err := restored.Device(d.ID); !errors.Is(err, auth.ErrUnknownDevice) {
			t.Fatalf("%s from the failed batch present after replay: %v", d.ID, err)
		}
	}
}

// TestKill9MidBatchPrefixRecovery pins the widened torn-tail rule for
// group commit: a crash during a multi-record batch write can cut the
// file anywhere, and recovery must keep exactly the record-aligned
// prefix — earlier records of the torn batch included — and keep the
// log appendable.
func TestKill9MidBatchPrefixRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.wal")
	ids := []string{"dev-0", "dev-1", "dev-2", "dev-3", "dev-4", "after"}
	var framed [][]byte
	var whole []byte
	for i := 0; i < 5; i++ {
		f := recordio.Append(nil, mustConsume(t, ids[i], []int{i}))
		framed = append(framed, f)
		whole = append(whole, f...)
	}
	// Records 0-1 were an acknowledged earlier commit; records 2-4 are
	// one in-flight batch the crash cut mid-record-3.
	cut := len(framed[0]) + len(framed[1]) + len(framed[2]) + len(framed[3])/2
	if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	v := replayTarget(t, ids...)
	w, recs, torn, err := openWAL(path, FsyncAlways, v)
	if err != nil {
		t.Fatal(err)
	}
	wantValid := int64(len(framed[0]) + len(framed[1]) + len(framed[2]))
	if recs != 3 || w.committedSize() != wantValid {
		t.Fatalf("recovered %d records, prefix %d; want 3 records, prefix %d (record-aligned cut inside the batch)",
			recs, w.committedSize(), wantValid)
	}
	if torn != int64(cut)-wantValid {
		t.Fatalf("torn bytes %d, want %d", torn, int64(cut)-wantValid)
	}
	if consumed(t, v, "dev-2") != 1 || consumed(t, v, "dev-3") != 0 {
		t.Fatalf("dev-2/dev-3 consumed %d/%d pairs, want 1/0 (the torn batch's first record survives, its cut one does not)",
			consumed(t, v, "dev-2"), consumed(t, v, "dev-3"))
	}
	// The log continues from the truncated prefix.
	if err := w.appendSync(mustConsume(t, "after", []int{9})); err != nil {
		t.Fatal(err)
	}
	w.close()
	data, _ := os.ReadFile(path)
	payloads, valid := frames(t, data)
	if len(payloads) != 4 || valid != int64(len(data)) {
		t.Fatalf("after post-crash append: %d records, valid %d of %d", len(payloads), valid, len(data))
	}
}

// TestFsyncOffNeverSyncs pins the -fsync off contract: records ride
// group commit like any other, but no fsync reaches a shard's log, so
// the call returns without a durability wait. Behaviorally, a reopen
// still sees every mutation, and the per-mutation cost stays within an
// order of magnitude of a pure in-memory store, nowhere near fsync
// territory.
func TestFsyncOffNeverSyncs(t *testing.T) {
	const n = 64
	devices, err := fleet.Synthetic(n, 8, 7, 0x0FF)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opt := StoreOptions{Shards: 2, Dir: dir, CompactBytes: -1, Fsync: FsyncOff}
	store, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	var files []*faultFile
	for _, sh := range store.shards {
		files = append(files, injectFaults(sh.wal))
	}
	mem, err := Open(StoreOptions{Shards: 2, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}

	offStart := time.Now()
	for _, d := range devices {
		if _, err := store.Enroll(d.ID, d.Pairs, core.Case2); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := store.Challenge(d.ID, 2); err != nil {
			t.Fatal(err)
		}
	}
	offDur := time.Since(offStart)
	memStart := time.Now()
	for _, d := range devices {
		if _, err := mem.Enroll(d.ID, d.Pairs, core.Case2); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := mem.Challenge(d.ID, 2); err != nil {
			t.Fatal(err)
		}
	}
	memDur := time.Since(memStart)

	for i, ff := range files {
		if got := ff.syncCount(); got != 0 {
			t.Fatalf("shard %d: %d Sync calls reached the WAL under fsync=off, want 0", i, got)
		}
	}
	// Loose latency pin: a single fsync is ~100µs+ on any real disk, so
	// paying one per mutation would put the ratio in the tens. An order
	// of magnitude absorbs page-cache writes and scheduler noise.
	if memDur > 0 && offDur > 10*memDur {
		t.Errorf("fsync=off spent %v for what costs %v in memory — is a durability wait hiding on the path?", offDur, memDur)
	}
	// kill -9 (not power loss) durability: the kernel has the bytes.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	restored, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got := restored.NumDevices(); got != n {
		t.Fatalf("restored %d devices under fsync=off, want %d", got, n)
	}
}

// TestConcurrentWALReplayEquivalence is the crash battery's concurrency
// leg: 32 mutators hammer a persistent store (enrolls and challenges
// interleaved, group commits batching arbitrarily), then the store is
// dropped and recovered purely from WAL replay. The recovered state must
// account for every acknowledged mutation exactly: all devices present,
// fresh = bits − consumed per device, and no consumed pair ever
// re-issued.
func TestConcurrentWALReplayEquivalence(t *testing.T) {
	const (
		mutators     = 32
		perMutator   = 4 // devices each mutator owns end to end
		challengeLen = 2
	)
	devices, err := fleet.Synthetic(mutators*perMutator, 8, 7, 0xEC0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opt := StoreOptions{Shards: 4, Seed: 9, Dir: dir, CompactBytes: -1}
	store, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	consumed := map[string]map[int]bool{} // device -> pairs acknowledged as consumed
	var wg sync.WaitGroup
	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for _, d := range devices[m*perMutator : (m+1)*perMutator] {
				if _, err := store.Enroll(d.ID, d.Pairs, core.Case2); err != nil {
					t.Errorf("enroll %s: %v", d.ID, err)
					return
				}
				for round := 0; round < 2; round++ {
					_, ch, _, err := store.Challenge(d.ID, challengeLen)
					if err != nil {
						t.Errorf("challenge %s: %v", d.ID, err)
						return
					}
					mu.Lock()
					set := consumed[d.ID]
					if set == nil {
						set = map[int]bool{}
						consumed[d.ID] = set
					}
					for _, p := range ch.Pairs {
						set[p] = true
					}
					mu.Unlock()
				}
			}
		}(m)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Crash: no SaveAll, no drain — the WAL is the only survivor.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	restored, err := Open(opt)
	if err != nil {
		t.Fatalf("replaying concurrent-mutator WAL: %v", err)
	}
	defer restored.Close()
	if got := restored.NumDevices(); got != len(devices) {
		t.Fatalf("restored %d devices, want %d", got, len(devices))
	}
	for _, d := range devices {
		info, err := restored.Device(d.ID)
		if err != nil {
			t.Fatalf("device %s lost: %v", d.ID, err)
		}
		if want := info.Bits - len(consumed[d.ID]); info.Fresh != want {
			t.Fatalf("device %s: fresh=%d, want %d (bits %d − %d acknowledged consumed pairs)",
				d.ID, info.Fresh, want, info.Bits, len(consumed[d.ID]))
		}
	}
	// Drain: nothing consumed pre-crash may be issued again.
	for _, d := range devices {
		for {
			_, ch, _, err := restored.Challenge(d.ID, challengeLen)
			if errors.Is(err, auth.ErrExhausted) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range ch.Pairs {
				if consumed[d.ID][p] {
					t.Fatalf("device %s: pair %d re-issued after concurrent replay", d.ID, p)
				}
			}
		}
	}
}

// mustConsume is a test helper for building WAL payloads.
func mustConsume(t *testing.T, id string, pairs []int) []byte {
	t.Helper()
	p, err := auth.AppendConsumeRecord(nil, id, pairs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
