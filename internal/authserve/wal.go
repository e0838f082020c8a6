package authserve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ropuf/internal/auth"
	"ropuf/internal/recordio"
)

// Per-shard write-ahead log with group commit. Every mutation (enroll,
// challenge-consume) appends one fixed-format record; under FsyncAlways
// the append is handed to a per-shard committer goroutine that drains
// whatever has queued since its last fsync, writes the whole batch with
// one write+fsync pair, and then releases every waiter at once. A lone
// writer still gets an immediate commit (the committer is idle, wakes
// instantly, and finds a batch of one), while N concurrent writers share
// a single fsync instead of paying N — durable throughput scales with
// concurrency up to the disk's flush rate. Recovery is snapshot + log
// replay; a background compactor (compact.go) folds a grown log back
// into the snapshot.
//
// # Wire format
//
// A WAL file is a bare sequence of package recordio frames, nothing else
// (no file header). Each payload is one of auth's mutation records — an
// enroll (device ID plus binary core.Enrollment) or a consume (device ID
// plus the challenge's pair indices) — and recovery replays them through
// auth.Verifier.ReplayLog, the same decoder and apply the shard snapshot
// loads through.
//
// # Torn-tail rule
//
// recordio's torn-frame rule ends the valid prefix: recovery keeps every
// record before the tear, truncates the file to the prefix, and appends
// continue from there. A group commit only widens the tear window, never
// changes the rule: the batch's records were written in queue order and
// none of its waiters were acknowledged before the batch's fsync
// returned, so losing any record-aligned suffix of a batch loses only
// unacknowledged mutations. A record whose checksum verifies but whose
// payload does not decode or apply is NOT a tear; it means corruption (or
// a foreign file) beyond what truncation may silently discard, and
// recovery fails loudly instead of dropping committed state.
//
// # Failure model
//
// A submit-time failure (test hook, broken latch, or the synchronous
// FsyncOff write) happens under the shard lock, before the mutation is
// visible to anyone else, so the caller rolls back atomically — PR 6
// semantics, unchanged. A commit-time failure (batch write or fsync
// error) is stricter than PR 6's per-record append: by then the batch's
// mutations are already visible in memory, and a later record may depend
// on an earlier one (a consume for a device whose enroll is in the
// failed batch). Committing any suffix of a failed prefix would let
// replay observe an effect without its cause, so a failed batch fails
// every record in it, the file is truncated back to the committed
// prefix, and the log latches broken — every queued and future submit
// fails too, and each caller rolls back its own mutation. The shard
// degrades to read-only rather than risk acknowledging writes replay
// would refuse.

// FsyncPolicy selects how aggressively the store flushes durability
// writes (WAL appends, snapshot files, and their parent directory).
type FsyncPolicy int

const (
	// FsyncAlways fsyncs every WAL append (batched by the group
	// committer) and snapshot write before the mutating call returns: a
	// kill -9 or power loss never loses an acknowledged mutation. This is
	// the default and the only policy the durability tests certify.
	FsyncAlways FsyncPolicy = iota
	// FsyncOff skips fsync everywhere AND bypasses the group committer:
	// the record is written straight to the OS page cache under the shard
	// lock and the call returns without any durability wait. A process
	// crash (kill -9) still loses nothing — the kernel has the data — but
	// power loss can. For benchmarks and bulk loads.
	FsyncOff
)

// ParseFsyncPolicy maps the -fsync flag values onto a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always", "":
		return FsyncAlways, nil
	case "off":
		return FsyncOff, nil
	default:
		return 0, fmt.Errorf("authserve: unknown fsync policy %q (want always or off)", s)
	}
}

func (p FsyncPolicy) String() string {
	if p == FsyncOff {
		return "off"
	}
	return "always"
}

// ErrWALBroken reports a WAL latched unusable — a failed group commit or
// an unrestorable tail after a failed synchronous write. Further
// mutations on the shard are refused rather than risk acknowledging
// writes that replay would discard (see the failure model above).
var ErrWALBroken = errors.New("authserve: WAL broken, shard mutations disabled")

// walBatch is the open group commit: every record submitted while the
// committer is busy frames itself into buf, and all of the batch's
// waiters park on one done channel — a single close broadcasts the
// verdict, instead of one channel send (and one wakeup hand-off) per
// record.
type walBatch struct {
	buf     []byte
	records int // records in buf (excludes test-failed ones)
	n       int // submission indices handed out (includes test-failed)
	done    chan struct{}
	err     error // batch verdict; set before done is closed

	// failed (tests only) carries per-record injected errors: those
	// records were never added to buf and their waiters see the mapped
	// error while their neighbours commit.
	failed map[int]error
}

// walPending is a submitted record whose durability verdict is still
// outstanding; the caller must wait() exactly once, after releasing the
// shard lock.
type walPending struct {
	w   *wal
	b   *walBatch
	idx int
}

// wait parks until the committer decides the record's batch. It must be
// called without the shard lock held — overlapping the durability waits
// of independent requests is the whole point of group commit.
func (p *walPending) wait() error {
	<-p.b.done
	p.w.waiters.Add(-1)
	if p.b.failed != nil {
		if err, ok := p.b.failed[p.idx]; ok {
			return err
		}
	}
	return p.b.err
}

// wal is one shard's open log file. Submission (submit, reset, flush) is
// always performed with the owning shard's lock held, but the committer
// goroutine runs outside that lock, so the batch/size/broken state has
// its own mutex.
type wal struct {
	f    *os.File
	sync bool // group-commit fsync per batch (FsyncAlways)

	mu     sync.Mutex
	cur    *walBatch // open batch accepting submissions; nil when empty
	size   int64     // committed bytes on disk
	broken bool      // see the failure model in the package comment
	closed bool      // close() begun: refuse new submits (committer is exiting)

	wake      chan struct{} // buffered(1): nudges the committer
	stopc     chan struct{}
	committed chan struct{} // closed when the committer goroutine exits
	started   bool          // committer goroutine running

	// waiters counts callers parked in wait(); exported to the
	// ropuf_authserve_wal_waiters gauge.
	waiters atomic.Int64

	// syncBuf is the reusable frame buffer for the synchronous
	// (FsyncOff) write path.
	syncBuf []byte

	// onFsync observes each batch's write+fsync latency; onCommit
	// observes each successful group commit (records, bytes, new
	// committed size, duration). Both run on the committer goroutine.
	onFsync  func(time.Duration)
	onCommit func(records int, bytes, size int64, d time.Duration)

	// failAppends (tests only) makes every submit fail synchronously
	// under the shard lock, before the mutation is visible — exercising
	// the PR 6 atomic rollback paths.
	failAppends bool
	// failPayload (tests only) injects an isolated per-record failure:
	// a submitted payload for which it returns true is kept out of the
	// batch and its wait() returns an error after the batch commits,
	// while its neighbours commit normally. Real commit-time failures
	// are batch-wide (see the failure model).
	failPayload func([]byte) bool
}

// openWAL opens (creating if absent) a shard's log, replays its records
// into v, truncates any torn tail, and starts the group committer
// (FsyncAlways only). It returns how many records were replayed and how
// many torn bytes were discarded.
func openWAL(path string, policy FsyncPolicy, v *auth.Verifier) (w *wal, replayed int, torn int64, err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("authserve: opening WAL %s: %w", path, err)
	}
	replayed, valid, err := v.ReplayLog(f)
	if err != nil {
		f.Close()
		return nil, 0, 0, fmt.Errorf("authserve: WAL %s corrupt: %w", path, err)
	}
	st, err := f.Stat()
	if err == nil && st.Size() > valid {
		torn = st.Size() - valid
		err = f.Truncate(valid)
	}
	if err != nil {
		f.Close()
		return nil, 0, 0, fmt.Errorf("authserve: truncating torn WAL tail %s: %w", path, err)
	}
	w = &wal{
		f:         f,
		size:      valid,
		sync:      policy == FsyncAlways,
		wake:      make(chan struct{}, 1),
		stopc:     make(chan struct{}),
		committed: make(chan struct{}),
	}
	if w.sync {
		w.started = true
		go w.run()
	}
	return w, replayed, torn, nil
}

// submit hands one record to the log. Called with the shard lock held.
//
// Under FsyncAlways it enqueues the framed record for the group
// committer and returns a pending handle; the caller must release the
// shard lock and wait() before acknowledging the mutation (rolling it
// back if the wait fails). Under FsyncOff it writes the record to the
// page cache synchronously and returns a nil pending — the record is as
// durable as the policy ever makes it, with no wait.
func (w *wal) submit(payload []byte) (*walPending, error) {
	if w.failAppends {
		return nil, errors.New("authserve: WAL append failed (test hook)")
	}
	if !w.sync {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.broken {
			return nil, ErrWALBroken
		}
		w.syncBuf = recordio.Append(w.syncBuf[:0], payload)
		if _, err := w.f.Write(w.syncBuf); err != nil {
			// Synchronous path: restore the clean tail; only an
			// unrestorable tail latches broken (PR 6 semantics — nothing
			// was visible outside the shard lock yet).
			if terr := w.f.Truncate(w.size); terr != nil {
				w.broken = true
			}
			return nil, fmt.Errorf("authserve: WAL append: %w", err)
		}
		w.size += int64(len(w.syncBuf))
		return nil, nil
	}
	w.mu.Lock()
	if w.broken || w.closed {
		err := ErrWALBroken
		if w.closed {
			err = errors.New("authserve: WAL closed")
		}
		w.mu.Unlock()
		return nil, err
	}
	b := w.cur
	if b == nil {
		b = &walBatch{done: make(chan struct{})}
		w.cur = b
	}
	idx := b.n
	b.n++
	if w.failPayload != nil && w.failPayload(payload) {
		if b.failed == nil {
			b.failed = make(map[int]error)
		}
		b.failed[idx] = errors.New("authserve: WAL append failed (test hook)")
	} else {
		b.buf = recordio.Append(b.buf, payload)
		b.records++
	}
	w.mu.Unlock()
	w.waiters.Add(1)
	select {
	case w.wake <- struct{}{}:
	default:
	}
	return &walPending{w: w, b: b, idx: idx}, nil
}

// flush is the compaction barrier: it parks until every record submitted
// before it has a durability verdict (including any batch already in
// flight when flush is called). Called with the shard lock held, which
// guarantees no new records can race in behind the barrier. Snapshotting
// without this barrier could persist in-memory state whose WAL records
// later fail and roll back — resurrecting a mutation whose caller was
// told it did not happen.
func (w *wal) flush() error {
	if w == nil || !w.sync {
		return nil // synchronous policies have no queue
	}
	w.mu.Lock()
	if w.broken || w.closed {
		w.mu.Unlock()
		return ErrWALBroken
	}
	b := w.cur
	if b == nil {
		// Nothing queued, but a previous batch may still be mid-fsync:
		// join an empty batch, which the committer picks up (and
		// answers) only after finishing anything in flight.
		b = &walBatch{done: make(chan struct{})}
		w.cur = b
	}
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
	<-b.done
	return b.err
}

// run is the group committer: wake, drain everything queued, commit it
// as one batch, repeat. On stop it drains what remains so no waiter is
// left parked forever.
func (w *wal) run() {
	defer close(w.committed)
	for {
		select {
		case <-w.wake:
			w.drain()
		case <-w.stopc:
			w.drain()
			return
		}
	}
}

// drain commits batches until none is open. Each iteration swaps out the
// entire open batch — every record that arrived while the previous batch
// was fsyncing shares the next one.
func (w *wal) drain() {
	for {
		// Yield before swapping the batch out: every submitter that is
		// already runnable gets to join it first. Without this, the
		// first waiter to resubmit after a commit wakes the committer
		// into a batch of one, and its fsync strands the rest in the
		// next batch — a lockstep convoy that halves the batching
		// factor (worst on few cores). For a lone writer the yield is
		// a no-op costing well under a microsecond against the fsync
		// it precedes.
		runtime.Gosched()
		w.mu.Lock()
		b := w.cur
		w.cur = nil
		broken := w.broken
		w.mu.Unlock()
		if b == nil {
			return
		}
		if broken {
			b.err = ErrWALBroken
			close(b.done)
			continue
		}
		w.commitBatch(b)
	}
}

// commitBatch writes one batch with a single write+fsync and broadcasts
// the verdict to every waiter. On I/O failure the whole batch fails, the
// file is truncated back to the committed prefix, and the log latches
// broken (see the failure model).
func (w *wal) commitBatch(b *walBatch) {
	var err error
	var elapsed time.Duration
	if len(b.buf) > 0 {
		start := time.Now()
		if _, err = w.f.Write(b.buf); err == nil {
			err = w.f.Sync()
		}
		elapsed = time.Since(start)
	}
	if err != nil {
		// The kernel may have dropped the batch's dirty pages; nothing
		// past the last *acknowledged* batch can be trusted. Restore the
		// committed prefix and latch broken — a partial batch must never
		// be acknowledged (causality: later records may depend on
		// earlier ones in this very batch).
		w.mu.Lock()
		if terr := w.f.Truncate(w.size); terr != nil {
			err = errors.Join(err, terr)
		}
		w.broken = true
		w.mu.Unlock()
		b.err = fmt.Errorf("authserve: WAL group commit: %w", err)
		close(b.done)
		return
	}
	if len(b.buf) > 0 {
		w.mu.Lock()
		w.size += int64(len(b.buf))
		size := w.size
		w.mu.Unlock()
		if w.onFsync != nil {
			w.onFsync(elapsed)
		}
		if w.onCommit != nil {
			w.onCommit(b.records, int64(len(b.buf)), size, elapsed)
		}
	}
	close(b.done)
}

// committedSize returns the bytes durably on disk (queued records
// excluded).
func (w *wal) committedSize() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// reset empties the log after its contents have been folded into a
// durable snapshot (compaction). The caller holds the shard lock and has
// already run flush(), so the committer is idle and the queue empty; the
// truncate is fsynced under the same policy as appends — a crash right
// after reset must not resurrect the pre-compaction tail lengths.
func (w *wal) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		w.broken = true
		return fmt.Errorf("authserve: WAL reset: %w", err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			w.broken = true
			return fmt.Errorf("authserve: WAL reset fsync: %w", err)
		}
	}
	w.size = 0
	return nil
}

// close stops the committer — draining any queued records first, so a
// caller parked in wait() is always answered — and closes the file.
func (w *wal) close() error {
	if w == nil || w.f == nil {
		return nil
	}
	if w.started {
		w.started = false
		w.mu.Lock()
		w.closed = true
		w.mu.Unlock()
		close(w.stopc)
		<-w.committed
	}
	return w.f.Close()
}

// syncDir fsyncs a directory so a just-renamed or just-created entry
// survives power loss (a rename is durable only once its directory is).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// walPathFor is the log sibling of a shard snapshot path.
func walPathFor(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.wal", shard))
}
