package authserve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ropuf/internal/auth"
	"ropuf/internal/core"
	"ropuf/internal/fleet"
	"ropuf/internal/recordio"
)

// gateCommitter blocks the wal's committer goroutine inside its first
// onCommit callback until the returned release func is called, recording
// every batch's record count. While the committer is parked, every new
// submit lands in the next open batch — the deterministic way to build a
// multi-record batch without racing the (very fast) commit loop.
func gateCommitter(w *wal) (sizes func() []int, parked <-chan struct{}, release func()) {
	var mu sync.Mutex
	var got []int
	gate := make(chan struct{})
	entered := make(chan struct{})
	var first atomic.Bool
	w.onCommit = func(records int, _, _ int64, _ time.Duration) {
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

	// Record 0 commits alone and parks the committer inside onCommit.
	lead, err := w.submit(mustConsume(t, "lead", []int{0}))
	if err != nil {
		t.Fatal(err)
	}
	<-parked

	// Sixteen appends queue behind the parked committer.
	var wg sync.WaitGroup
	errs := make([]error, queued)
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.appendSync(mustConsume(t, fmt.Sprintf("dev-%02d", i), []int{i}))
		}(i)
	}
	// lead's waiter (1, unparked only when we wait() below) + the queued.
	waitForWaiters(t, w, queued+1)
	release()
	wg.Wait()
	if err := lead.wait(); err != nil {
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
	<-parked // lead committed; committer parked inside onCommit
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
		t.Fatal("flush never returned after the committer resumed")
	}
	if err := lead.wait(); err != nil {
		t.Fatal(err)
	}
	if err := queued.wait(); err != nil {
		t.Fatal(err)
	}
	w.close()
}

// TestGroupCommitFailureFailsWholeBatch pins the failure model: a batch
// whose write fails must fail EVERY record in it (a later record may
// depend on an earlier one), truncate the file back to the committed
// prefix, and latch the log broken for all future work.
func TestGroupCommitFailureFailsWholeBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.wal")
	w, _, _, err := openWAL(path, FsyncAlways, replayTarget(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.appendSync(mustConsume(t, "committed", []int{0})); err != nil {
		t.Fatal(err)
	}
	committed := w.committedSize()

	_, parked, release := gateCommitter(w)
	lead, err := w.submit(mustConsume(t, "lead", []int{1}))
	if err != nil {
		t.Fatal(err)
	}
	<-parked // lead durably written; sabotage below cannot touch it
	a, err := w.submit(mustConsume(t, "batch-a", []int{2}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.submit(mustConsume(t, "batch-b", []int{3}))
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the file descriptor: the queued batch's write must fail.
	if err := w.f.Close(); err != nil {
		t.Fatal(err)
	}
	release()
	if err := lead.wait(); err != nil {
		t.Fatalf("lead was written before the sabotage, must commit: %v", err)
	}
	errA, errB := a.wait(), b.wait()
	if errA == nil || errB == nil {
		t.Fatalf("batch verdicts = %v / %v, want both failed", errA, errB)
	}
	// The latch: every later submit and flush refuses.
	if _, err := w.submit(mustConsume(t, "late", []int{4})); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("submit after failed commit = %v, want ErrWALBroken", err)
	}
	if err := w.flush(); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("flush after failed commit = %v, want ErrWALBroken", err)
	}
	if got := w.committedSize(); got != committed+int64(recordio.HeaderLen+len(mustConsume(t, "lead", []int{1}))) {
		t.Fatalf("committed size %d after failed batch, want the pre-failure prefix", got)
	}
	w.close()
}

// TestGroupCommitIsolatedRecordFailure pins the PER-RECORD rollback
// granularity the store's callers rely on: when one record of a shared
// batch fails (the test hook models a submit-side failure detected at
// commit), its neighbours' mutations must survive — record k's rollback
// must not roll back k-1 or k+1.
func TestGroupCommitIsolatedRecordFailure(t *testing.T) {
	dir := t.TempDir()
	devices, err := fleet.Synthetic(3, 8, 7, 0x15A)
	if err != nil {
		t.Fatal(err)
	}
	opt := StoreOptions{Shards: 1, Dir: dir, CompactBytes: -1}
	store, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	sh := store.shards[0]
	victim := devices[1].ID
	sh.wal.failPayload = func(p []byte) bool { return recordID(p) == victim }
	// Park the committer behind a throwaway enroll so all three racing
	// enrolls below land in one batch.
	_, parked, release := gateCommitter(sh.wal)
	leadDev, err := fleet.Synthetic(4, 8, 7, 0x15B)
	if err != nil {
		t.Fatal(err)
	}
	leadErr := make(chan error, 1)
	go func() {
		_, err := store.Enroll(leadDev[3].ID, leadDev[3].Pairs, core.Case2)
		leadErr <- err
	}()
	<-parked

	errs := make([]error, len(devices))
	var wg sync.WaitGroup
	for i, d := range devices {
		wg.Add(1)
		go func(i int, d fleet.Device) {
			defer wg.Done()
			_, err := store.Enroll(d.ID, d.Pairs, core.Case2)
			errs[i] = err
		}(i, d)
	}
	waitForWaiters(t, sh.wal, 4)
	release()
	wg.Wait()
	if err := <-leadErr; err != nil {
		t.Fatal(err)
	}

	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("neighbour enrolls failed (%v / %v) when only the middle record was injected to fail", errs[0], errs[2])
	}
	if !errors.Is(errs[1], ErrPersist) {
		t.Fatalf("victim enroll = %v, want ErrPersist", errs[1])
	}
	// The victim rolled back alone: unknown in memory AND after replay.
	if _, err := store.Device(victim); !errors.Is(err, auth.ErrUnknownDevice) {
		t.Fatalf("victim after failed record = %v, want ErrUnknownDevice", err)
	}
	sh.wal.failPayload = nil
	store.Close()
	restored, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	for _, id := range []string{devices[0].ID, devices[2].ID, leadDev[3].ID} {
		if _, err := restored.Device(id); err != nil {
			t.Fatalf("neighbour %s lost after replay: %v", id, err)
		}
	}
	if _, err := restored.Device(victim); !errors.Is(err, auth.ErrUnknownDevice) {
		t.Fatalf("victim present after replay: %v", err)
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

// TestFsyncOffBypassesGroupCommit pins the -fsync off contract: the
// record is written synchronously to the page cache and the call returns
// with no committer hand-off and no durability wait — structurally (the
// group-commit histogram never fires, no waiter ever parks) and
// behaviorally (a reopen still sees every mutation; the per-mutation
// cost stays within an order of magnitude of a pure in-memory store,
// nowhere near fsync territory).
func TestFsyncOffBypassesGroupCommit(t *testing.T) {
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

	if got := store.walGroupRecords.Count(); got != 0 {
		t.Fatalf("%d group commits under fsync=off, want 0 (the committer must be bypassed)", got)
	}
	for _, sh := range store.shards {
		if sh.wal.waiters.Load() != 0 || sh.wal.started {
			t.Fatalf("shard %s: waiters=%d started=%v under fsync=off, want no committer at all",
				sh.label, sh.wal.waiters.Load(), sh.wal.started)
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

// recordID reads the device ID out of a WAL payload: every auth mutation
// record starts with a type byte and a u16le-length-prefixed ID.
func recordID(p []byte) string {
	if len(p) < 3 {
		return ""
	}
	end := 3 + int(binary.LittleEndian.Uint16(p[1:3]))
	if end > len(p) {
		return ""
	}
	return string(p[3:end])
}
