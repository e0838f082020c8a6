package authserve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"ropuf/internal/auth"
	"ropuf/internal/bits"
	"ropuf/internal/core"
	"ropuf/internal/fleet"
)

// TestStoreConcurrentHammer drives the sharded store from many goroutines
// with overlapping device IDs — parallel enrolls racing on the same ID,
// challenge/verify/device-info traffic interleaved — and checks the
// aggregate invariants afterwards. Run under -race (make verify), this
// pins the thread-safety contract that wraps the non-thread-safe
// auth.Verifier.
func TestStoreConcurrentHammer(t *testing.T) {
	const (
		numDevices = 24
		goroutines = 16
		opsPerG    = 40
	)
	devices, err := fleet.Synthetic(numDevices, 16, 7, 0xBEEF)
	if err != nil {
		t.Fatal(err)
	}
	store, err := Open(StoreOptions{Shards: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}

	var enrolled, dupes, challenges, verified atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for op := 0; op < opsPerG; op++ {
				d := devices[(g+op)%numDevices]
				switch op % 4 {
				case 0: // racing enrolls on overlapping IDs
					_, err := store.Enroll(d.ID, d.Pairs, core.Case2)
					switch {
					case err == nil:
						enrolled.Add(1)
					case errors.Is(err, auth.ErrDuplicateDevice):
						dupes.Add(1)
					default:
						t.Errorf("enroll %s: %v", d.ID, err)
					}
				case 1: // challenge + immediate verify with reference bits
					nonce, ch, _, err := store.Challenge(d.ID, 2)
					if err != nil {
						if errors.Is(err, auth.ErrUnknownDevice) || errors.Is(err, auth.ErrExhausted) {
							continue
						}
						t.Errorf("challenge %s: %v", d.ID, err)
						continue
					}
					challenges.Add(1)
					resp := bits.New(len(ch.Pairs))
					for range ch.Pairs {
						resp.Append(false)
					}
					if _, _, _, err := store.Verify(d.ID, nonce, resp); err != nil {
						t.Errorf("verify %s: %v", d.ID, err)
						continue
					}
					verified.Add(1)
				case 2: // replayed/unknown challenge must never panic
					if _, _, _, err := store.Verify(d.ID, "bogus", bits.New(0)); !errors.Is(err, ErrUnknownChallenge) {
						t.Errorf("bogus verify %s: %v", d.ID, err)
					}
				case 3: // read path
					if _, err := store.Device(d.ID); err != nil && !errors.Is(err, auth.ErrUnknownDevice) {
						t.Errorf("device %s: %v", d.ID, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Every device was enrolled exactly once across all racing attempts.
	if got := store.NumDevices(); got != numDevices {
		t.Fatalf("store holds %d devices, want %d", got, numDevices)
	}
	if enrolled.Load() != numDevices {
		t.Fatalf("%d successful enrolls, want %d (dupes %d)", enrolled.Load(), numDevices, dupes.Load())
	}
	if verified.Load() != challenges.Load() {
		t.Fatalf("%d challenges but %d verifies — outstanding table leaked", challenges.Load(), verified.Load())
	}
	// Consumed-pair accounting adds up: fresh = bits - 2*challenges, summed.
	totalFresh, totalBits := 0, 0
	for _, d := range devices {
		info, err := store.Device(d.ID)
		if err != nil {
			t.Fatal(err)
		}
		totalFresh += info.Fresh
		totalBits += info.Bits
		if info.Outstanding != 0 {
			t.Fatalf("device %s still has %d outstanding challenges", d.ID, info.Outstanding)
		}
	}
	if want := totalBits - 2*int(challenges.Load()); totalFresh != want {
		t.Fatalf("fresh pairs %d, want %d (%d bits - 2x%d challenges)", totalFresh, want, totalBits, challenges.Load())
	}
}

// TestCrashRestart simulates a kill -9 between mutations: the store is
// reopened by replaying its WALs, without SaveAll. No enrolled device may
// be lost, consumed pairs must stay consumed, and challenges issued
// before the crash must be rejected afterwards.
func TestCrashRestart(t *testing.T) {
	dir := t.TempDir()
	devices, err := fleet.Synthetic(6, 16, 7, 0xDEAD)
	if err != nil {
		t.Fatal(err)
	}
	opt := StoreOptions{Shards: 4, Dir: dir, Seed: 5}
	store, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range devices {
		if _, err := store.Enroll(d.ID, d.Pairs, core.Case2); err != nil {
			t.Fatal(err)
		}
	}
	// Issue challenges; leave them all outstanding (unverified) at the
	// moment of the "crash".
	type issued struct {
		id, nonce string
		pairs     []int
	}
	var preCrash []issued
	freshBefore := map[string]int{}
	for _, d := range devices {
		nonce, ch, _, err := store.Challenge(d.ID, 4)
		if err != nil {
			t.Fatal(err)
		}
		preCrash = append(preCrash, issued{id: d.ID, nonce: nonce, pairs: ch.Pairs})
		info, err := store.Device(d.ID)
		if err != nil {
			t.Fatal(err)
		}
		freshBefore[d.ID] = info.Fresh
	}

	// Crash: drop the store on the floor — no SaveAll, no drain. The
	// WALs on disk are all that survives.
	store = nil

	restored, err := Open(opt)
	if err != nil {
		t.Fatalf("reopening after crash: %v", err)
	}
	if got := restored.NumDevices(); got != len(devices) {
		t.Fatalf("restored %d devices, want %d", got, len(devices))
	}
	for _, d := range devices {
		info, err := restored.Device(d.ID)
		if err != nil {
			t.Fatalf("device %s lost in crash: %v", d.ID, err)
		}
		if info.Fresh != freshBefore[d.ID] {
			t.Fatalf("device %s fresh=%d after restart, want %d (consumed pairs resurrected)",
				d.ID, info.Fresh, freshBefore[d.ID])
		}
		if info.Outstanding != 0 {
			t.Fatalf("device %s has %d outstanding challenges after restart", d.ID, info.Outstanding)
		}
	}
	// Every pre-crash challenge is dead: a perfect response is rejected.
	for _, iss := range preCrash {
		resp := bits.New(len(iss.pairs))
		for range iss.pairs {
			resp.Append(true)
		}
		if _, _, _, err := restored.Verify(iss.id, iss.nonce, resp); !errors.Is(err, ErrUnknownChallenge) {
			t.Fatalf("pre-crash challenge %s for %s not rejected: %v", iss.nonce, iss.id, err)
		}
	}
	// New challenges never re-issue pairs consumed before the crash.
	for i, iss := range preCrash {
		consumed := map[int]bool{}
		for _, p := range iss.pairs {
			consumed[p] = true
		}
		for {
			_, ch, _, err := restored.Challenge(iss.id, 4)
			if errors.Is(err, auth.ErrExhausted) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range ch.Pairs {
				if consumed[p] {
					t.Fatalf("device %s: pair %d re-issued after crash (challenge %d)", iss.id, p, i)
				}
			}
		}
	}
}

// TestOpenOptionMismatch pins that a data directory cannot be silently
// reopened with a different shard count or tolerance.
func TestOpenOptionMismatch(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(StoreOptions{Shards: 4, Tolerance: 0.1, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(StoreOptions{Shards: 8, Tolerance: 0.1, Dir: dir}); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
	if _, err := Open(StoreOptions{Shards: 4, Tolerance: 0.2, Dir: dir}); err == nil {
		t.Fatal("tolerance mismatch accepted")
	}
	if _, err := Open(StoreOptions{Shards: 4, Tolerance: 0.1, Dir: dir}); err != nil {
		t.Fatalf("matching reopen rejected: %v", err)
	}
}

// TestOpenRefusesV1DataDir pins the format cut-over: a version-1 data
// directory held JSON shard snapshots, which this build no longer reads,
// so Open refuses it by name instead of misreading its snapshots.
func TestOpenRefusesV1DataDir(t *testing.T) {
	dir := t.TempDir()
	manifest := `{"version": 1, "shards": 4, "tolerance": 0.1}`
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(StoreOptions{Shards: 4, Tolerance: 0.1, Dir: dir})
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("Open on a version-1 data dir = %v, want an error naming version 1", err)
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(fds)
}

// TestOpenFailureReleasesShards pins that Close, and a failed Open, stop
// every shard already opened: under either fsync policy each open shard
// holds its WAL file, and a caller handed an error has no Store to Close.
// It also pins that the store owns no goroutines: once the enrolls have
// returned, an open store holds one file per shard and nothing else.
func TestOpenFailureReleasesShards(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			opt := StoreOptions{Shards: 4, Dir: dir, Fsync: policy}
			goroutines, fds := runtime.NumGoroutine(), openFDs(t)
			// released waits for the goroutine count to be back at the
			// baseline and for at most held files beyond it.
			released := func(what string, held int) {
				t.Helper()
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > goroutines || openFDs(t) > fds+held {
					if time.Now().After(deadline) {
						t.Fatalf("%s leaked: goroutines %d -> %d, fds %d -> %d",
							what, goroutines, runtime.NumGoroutine(), fds, openFDs(t))
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
			store, err := Open(opt)
			if err != nil {
				t.Fatal(err)
			}
			devices, err := fleet.Synthetic(32, 8, 5, 0x1EA4)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range devices {
				if _, err := store.Enroll(d.ID, d.Pairs, core.Case2); err != nil {
					t.Fatal(err)
				}
			}
			if store.shards[3].v.NumDevices() == 0 {
				t.Fatal("no device landed on the last shard")
			}
			released("open store", opt.Shards)
			if err := store.SaveAll(); err != nil {
				t.Fatal(err)
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			released("Close", 0)
			// The last shard fails to load, after shards 0-2 opened their WALs.
			if err := corruptFile(filepath.Join(dir, "shard-0003.snap")); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(opt); err == nil {
				t.Fatal("corrupted snapshot accepted")
			}
			released("failed Open", 0)
		})
	}
}

// TestCorruptSnapshotRejected pins that Open surfaces a decodable error
// for a torn or corrupted shard file instead of silently dropping devices.
func TestCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	opt := StoreOptions{Shards: 2, Dir: dir}
	store, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	devices, err := fleet.Synthetic(2, 8, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range devices {
		if _, err := store.Enroll(d.ID, d.Pairs, core.Case2); err != nil {
			t.Fatal(err)
		}
	}
	// Enrollments land in the WAL; fold it so the snapshots exist.
	if err := store.SaveAll(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "shard-*.snap"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no shard snapshots written: %v %v", files, err)
	}
	if err := corruptFile(files[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(opt); err == nil {
		t.Fatal("corrupted snapshot accepted")
	}
}

// corruptFile truncates a snapshot mid-file, simulating torn bytes from a
// filesystem that lost the rename's atomicity guarantee.
func corruptFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data[:len(data)/2], 0o644)
}

// TestEnrollRetryAfterPersistFailure pins the persist-failure bugfix: the
// pre-WAL store left a failed-durability enrollment in memory, so the
// client it told to re-enroll then hit ErrDuplicateDevice forever. The
// WAL commit is now the atomicity point — on failure the in-memory
// enrollment rolls back. Here the disk fills mid-write (ENOSPC after a
// short write): the torn bytes are cut back, the shard latches, an
// in-process retry is refused by the latch and rolled back too, and the
// retry after a restart succeeds durably.
func TestEnrollRetryAfterPersistFailure(t *testing.T) {
	dir := t.TempDir()
	devices, err := fleet.Synthetic(1, 8, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := devices[0]
	opt := StoreOptions{Shards: 2, Dir: dir, CompactBytes: -1}
	store, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ff := injectFaults(store.shardFor(d.ID).wal)

	ff.fault(&ff.failWrite, syscall.ENOSPC)
	if _, err := store.Enroll(d.ID, d.Pairs, core.Case2); !errors.Is(err, ErrPersist) {
		t.Fatalf("enroll on a full disk = %v, want ErrPersist", err)
	}
	if store.walFailures.Load() == 0 {
		t.Fatal("WAL failure not counted for health reporting")
	}
	// No ghost: the device must be unknown, not half-enrolled.
	if _, err := store.Device(d.ID); !errors.Is(err, auth.ErrUnknownDevice) {
		t.Fatalf("device after failed enroll = %v, want ErrUnknownDevice", err)
	}
	if fi, err := os.Stat(ff.Name()); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL after the short write: %v, %v; want the empty committed prefix", fi.Size(), err)
	}

	// Space comes back, but the latch holds until restart: the retry is
	// refused at submit and rolled back under the shard lock.
	ff.fault(&ff.failWrite, nil)
	if _, err := store.Enroll(d.ID, d.Pairs, core.Case2); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("in-process retry on a latched shard = %v, want ErrWALBroken", err)
	}
	if _, err := store.Device(d.ID); !errors.Is(err, auth.ErrUnknownDevice) {
		t.Fatalf("device after refused retry = %v, want ErrUnknownDevice", err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	restarted, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restarted.Enroll(d.ID, d.Pairs, core.Case2); err != nil {
		t.Fatalf("retry after restart = %v (the pre-WAL store answered ErrDuplicateDevice here)", err)
	}
	restarted.Close()
	// The retried enrollment is durable: a crash-reopen still has it.
	restored, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if _, err := restored.Device(d.ID); err != nil {
		t.Fatalf("retried enrollment lost in crash: %v", err)
	}
}

// TestChallengeRollbackOnPersistFailure audits Challenge's analogous
// path: a challenge whose consume record cannot be made durable must not
// burn the pairs (they never left the process) and must not be issued —
// neither when its own commit fails (EIO on fsync) nor when a later
// challenge is refused by the latch and rolls back under the shard lock
// it still holds. After a restart the pairs are drawable again.
func TestChallengeRollbackOnPersistFailure(t *testing.T) {
	dir := t.TempDir()
	devices, err := fleet.Synthetic(1, 8, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := devices[0]
	opt := StoreOptions{Shards: 2, Dir: dir, CompactBytes: -1}
	store, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ff := injectFaults(store.shardFor(d.ID).wal)
	if _, err := store.Enroll(d.ID, d.Pairs, core.Case2); err != nil {
		t.Fatal(err)
	}
	before, err := store.Device(d.ID)
	if err != nil {
		t.Fatal(err)
	}
	unburned := func(phase string) {
		t.Helper()
		after, err := store.Device(d.ID)
		if err != nil {
			t.Fatal(err)
		}
		if after.Fresh != before.Fresh {
			t.Fatalf("%s: fresh %d, want %d (pairs burned without durability)", phase, after.Fresh, before.Fresh)
		}
		if after.Outstanding != 0 {
			t.Fatalf("%s: %d outstanding challenges after failed issuance", phase, after.Outstanding)
		}
	}

	ff.fault(&ff.failSync, syscall.EIO)
	if _, _, _, err := store.Challenge(d.ID, 2); !errors.Is(err, ErrPersist) {
		t.Fatalf("challenge with failing fsync = %v, want ErrPersist", err)
	}
	unburned("failed commit")
	ff.fault(&ff.failSync, nil)
	if _, _, _, err := store.Challenge(d.ID, 2); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("challenge on a latched shard = %v, want ErrWALBroken", err)
	}
	unburned("refused by the latch")
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	restarted, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if _, _, _, err := restarted.Challenge(d.ID, 2); err != nil {
		t.Fatalf("challenge after restart = %v", err)
	}
	final, _ := restarted.Device(d.ID)
	if final.Fresh != before.Fresh-2 {
		t.Fatalf("fresh %d after successful challenge, want %d", final.Fresh, before.Fresh-2)
	}
}

// TestShardForHighBitIDs pins the uint32 routing arithmetic: with
// int(h.Sum32()) % n the modulo goes negative for high-bit hashes where
// int is 32 bits, and s.shards[negative] panics. Routing must agree with
// pure uint32 arithmetic for IDs whose hash has the top bit set.
func TestShardForHighBitIDs(t *testing.T) {
	const shards = 3 // not a power of two, so a sign flip changes the result
	store, err := Open(StoreOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for i := 0; i < 10000 && found < 16; i++ {
		id := fmt.Sprintf("dev-%04d", i)
		h := fnv.New32a()
		h.Write([]byte(id))
		sum := h.Sum32()
		if sum < 1<<31 {
			continue
		}
		found++
		if got, want := store.shardFor(id), store.shards[sum%uint32(shards)]; got != want {
			t.Fatalf("shardFor(%q) routed to the wrong shard for high-bit hash %#x", id, sum)
		}
	}
	if found == 0 {
		t.Fatal("no device IDs with high-bit FNV-1a hashes in the probe range")
	}
}

// TestMidCompactionCrashRestart extends the kill -9 durability guarantee
// into the compaction window: the snapshot has been durably renamed but
// the WAL not yet truncated, so recovery replays the full log over a
// snapshot that already contains it. Replay idempotency must converge to
// the same state, not double-apply or reject. A failing WAL Truncate
// stands in for the crash: it stops every compaction between the two
// steps.
func TestMidCompactionCrashRestart(t *testing.T) {
	dir := t.TempDir()
	devices, err := fleet.Synthetic(6, 16, 7, 0xC0DE)
	if err != nil {
		t.Fatal(err)
	}
	opt := StoreOptions{Shards: 2, Dir: dir, Seed: 5, CompactBytes: -1}
	store, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var files []*faultFile
	for _, sh := range store.shards {
		files = append(files, injectFaults(sh.wal))
	}
	freshBefore := map[string]int{}
	for _, d := range devices {
		if _, err := store.Enroll(d.ID, d.Pairs, core.Case2); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := store.Challenge(d.ID, 4); err != nil {
			t.Fatal(err)
		}
		info, err := store.Device(d.ID)
		if err != nil {
			t.Fatal(err)
		}
		freshBefore[d.ID] = info.Fresh
	}

	// Crash inside the compaction: snapshot durable, WAL untouched.
	for _, ff := range files {
		ff.fault(&ff.failTrunc, syscall.EIO)
	}
	if err := store.SaveAll(); err == nil {
		t.Fatal("SaveAll reported success with a failing WAL truncate")
	}
	if store.walFailures.Load() == 0 {
		t.Fatal("failed WAL reset not counted")
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "shard-*.snap"))
	if len(snaps) == 0 {
		t.Fatal("compaction wrote no snapshots")
	}
	walBytes := int64(0)
	wals, _ := filepath.Glob(filepath.Join(dir, "shard-*.wal"))
	for _, w := range wals {
		fi, err := os.Stat(w)
		if err != nil {
			t.Fatal(err)
		}
		walBytes += fi.Size()
	}
	if walBytes == 0 {
		t.Fatal("WAL already truncated — the failing Truncate did not stop the compaction")
	}

	check := func(s *Store, phase string) {
		t.Helper()
		if got := s.NumDevices(); got != len(devices) {
			t.Fatalf("%s: %d devices, want %d", phase, got, len(devices))
		}
		for _, d := range devices {
			info, err := s.Device(d.ID)
			if err != nil {
				t.Fatalf("%s: device %s: %v", phase, d.ID, err)
			}
			if info.Fresh != freshBefore[d.ID] {
				t.Fatalf("%s: device %s fresh=%d, want %d", phase, d.ID, info.Fresh, freshBefore[d.ID])
			}
		}
	}
	restored, err := Open(opt)
	if err != nil {
		t.Fatalf("reopening after mid-compaction crash: %v", err)
	}
	check(restored, "after mid-compaction crash")

	// Let the restored store finish the interrupted compaction cleanly,
	// then crash again: snapshot-only recovery must agree too.
	if err := restored.SaveAll(); err != nil {
		t.Fatal(err)
	}
	restored.Close()
	final, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	check(final, "after completed compaction")
}

// TestWALReplayEquivalence pins that a WAL-backed store recovered from
// disk is state-equivalent to an identically-driven in-memory store: the
// log is a faithful encoding of the mutation history, not an
// approximation of it.
func TestWALReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	devices, err := fleet.Synthetic(10, 16, 7, 0xFACE)
	if err != nil {
		t.Fatal(err)
	}
	opt := StoreOptions{Shards: 4, Seed: 9, Dir: dir, CompactBytes: -1}
	persistent, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer persistent.Close()
	memory, err := Open(StoreOptions{Shards: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	consumed := map[string]map[int]bool{}
	for _, d := range devices {
		consumed[d.ID] = map[int]bool{}
	}
	for _, s := range []*Store{persistent, memory} {
		for _, d := range devices {
			if _, err := s.Enroll(d.ID, d.Pairs, core.Case2); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < 2; round++ {
		for _, d := range devices {
			_, ch, _, err := persistent.Challenge(d.ID, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range ch.Pairs {
				consumed[d.ID][p] = true
			}
			if _, _, _, err := memory.Challenge(d.ID, 3); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Crash the persistent store and recover purely from snapshot-less
	// WAL replay (CompactBytes < 0, so nothing was ever folded).
	restored, err := Open(opt)
	if err != nil {
		t.Fatalf("recovering from WAL: %v", err)
	}
	defer restored.Close()
	if restored.NumDevices() != memory.NumDevices() {
		t.Fatalf("restored %d devices, in-memory twin has %d", restored.NumDevices(), memory.NumDevices())
	}
	for _, d := range devices {
		a, err := restored.Device(d.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, err := memory.Device(d.ID)
		if err != nil {
			t.Fatal(err)
		}
		a.Outstanding = 0 // challenges are memory-only by design
		b.Outstanding = 0
		if a != b {
			t.Fatalf("device %s: restored %+v, in-memory twin %+v", d.ID, a, b)
		}
	}
	// The replayed consumed-set is exact: draining the restored store
	// never re-issues a pre-crash pair.
	for _, d := range devices {
		for {
			_, ch, _, err := restored.Challenge(d.ID, 3)
			if errors.Is(err, auth.ErrExhausted) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range ch.Pairs {
				if consumed[d.ID][p] {
					t.Fatalf("device %s: consumed pair %d re-issued after replay", d.ID, p)
				}
			}
		}
	}
}

// TestBackgroundCompaction drives the store past the WAL threshold: the
// request whose commit crosses it folds the log before returning, so the
// WAL is empty as soon as the last Enroll returns, the snapshot is there,
// and recovery from the folded state is complete.
func TestBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	devices, err := fleet.Synthetic(8, 16, 7, 0xAB)
	if err != nil {
		t.Fatal(err)
	}
	// Threshold far below one enrollment record (~220 bytes with header),
	// so every enroll folds the log — including the last one. A threshold
	// above one record can leave a sub-threshold tail that no request
	// folds (that tail is fine for recovery, but this test wants the log
	// fully folded).
	opt := StoreOptions{Shards: 1, Dir: dir, CompactBytes: 64}
	store, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for _, d := range devices {
		if _, err := store.Enroll(d.ID, d.Pairs, core.Case2); err != nil {
			t.Fatal(err)
		}
	}
	if n := store.WALBacklogBytes(); n > 0 {
		t.Fatalf("WAL holds %d bytes after the last enroll returned, want it folded", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-0000.snap")); err != nil {
		t.Fatalf("no snapshot after compaction: %v", err)
	}
	restored, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got := restored.NumDevices(); got != len(devices) {
		t.Fatalf("restored %d devices after compaction, want %d", got, len(devices))
	}
}

// TestStoreTornWALTailRecovery crashes the store with a torn trailing
// record on disk: recovery keeps every whole record, drops the tear, and
// the log accepts new appends afterwards.
func TestStoreTornWALTailRecovery(t *testing.T) {
	dir := t.TempDir()
	devices, err := fleet.Synthetic(4, 8, 7, 0x7EA4)
	if err != nil {
		t.Fatal(err)
	}
	opt := StoreOptions{Shards: 1, Dir: dir, CompactBytes: -1}
	store, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range devices[:3] {
		if _, err := store.Enroll(d.ID, d.Pairs, core.Case2); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: a partial record the crash never finished writing.
	f, err := os.OpenFile(filepath.Join(dir, "shard-0000.wal"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	restored, err := Open(opt)
	if err != nil {
		t.Fatalf("reopening with torn WAL tail: %v", err)
	}
	if got := restored.NumDevices(); got != 3 {
		t.Fatalf("restored %d devices, want 3", got)
	}
	// Appends continue cleanly after the truncation.
	if _, err := restored.Enroll(devices[3].ID, devices[3].Pairs, core.Case2); err != nil {
		t.Fatal(err)
	}
	restored.Close()
	final, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	if got := final.NumDevices(); got != 4 {
		t.Fatalf("post-tear enroll lost: %d devices, want 4", got)
	}
}

// TestStoreHeapBudget bounds the live heap an enrolled device costs a
// durable store, read after two GCs: 2,000 Case-2 devices of 128 pairs ×
// 13 stages in 16 shards, once enrolled, once their WALs have replayed
// into a fresh store, and once that store's folded snapshots have loaded
// into another. A shard verifier keeps a device's ID, pair count and
// three bitsets, not its 1,717 B enroll body, which the snapshot and WAL
// hold; keeping the body cost ~2.0 KB per device.
func TestStoreHeapBudget(t *testing.T) {
	const devices, budget = 2000, 400
	pool, err := fleet.Synthetic(16, 128, 13, 0x4EA9)
	if err != nil {
		t.Fatal(err)
	}
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
	opt := StoreOptions{Shards: 16, Dir: t.TempDir(), Fsync: FsyncOff}
	reopen := func() *Store {
		t.Helper()
		s, err := Open(opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.NumDevices(); got != devices {
			t.Fatalf("reopened store holds %d devices, want %d", got, devices)
		}
		return s
	}

	before := live()
	s, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < devices; i++ {
		if _, err := s.Enroll(fmt.Sprintf("dev-%04d", i), pool[i%len(pool)].Pairs, core.Case2); err != nil {
			t.Fatal(err)
		}
	}
	check("Enroll", live()-before)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = nil
	before = live()
	s = reopen()
	check("WAL replay", live()-before)
	if err := s.SaveAll(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = nil
	before = live()
	s = reopen()
	check("snapshot load", live()-before)
	if n := s.WALBacklogBytes(); n != 0 {
		t.Fatalf("the snapshot load replayed a %d-byte WAL", n)
	}
	runtime.KeepAlive(pool)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
