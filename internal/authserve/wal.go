package authserve

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ropuf/internal/auth"
	"ropuf/internal/recordio"
)

// Per-shard write-ahead log with leader/follower group commit. Every
// mutation (enroll, challenge-consume) frames one fixed-format record
// into the shard's open batch (submit, under the shard lock) and then
// waits for that batch's verdict (wait, after the lock is released). The
// log owns no goroutine: a waiter that takes the log's one-slot commit
// token before its batch is decided leads — it swaps the whole open batch
// out, writes it with one write (plus one fsync under FsyncAlways), and
// releases every waiter at once — while writers that queue meanwhile
// follow into the next batch, which the next token holder commits. A lone
// writer leads its own batch of one at once, while N concurrent writers
// share a single fsync instead of paying N — durable throughput scales
// with concurrency up to the disk's flush rate. This is the write-thread
// shape of RocksDB's WriteThread and MySQL's binlog group commit.
// Recovery is snapshot + log replay; the request whose commit carries a
// log past the compaction threshold folds it back into the snapshot
// (compact.go).
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
// Every record reaches the file through a group commit, under either fsync
// policy. A submit-time failure is a refusal by the latch (or by a
// closing log): nothing was enqueued, and the caller rolls its mutation
// back under the shard lock it still holds. A commit-time failure (batch
// write or fsync error) comes later: by then the batch's mutations are
// already visible in memory, and a later record may depend on an earlier
// one (a consume for a device whose enroll is in the failed batch).
// Committing any suffix of a failed prefix would let replay observe an
// effect without its cause, so a failed batch fails every record in it,
// the file is truncated back to the committed prefix, and the log latches
// broken — every queued and future submit fails too, and each caller
// rolls back its own mutation. The shard degrades to read-only until a
// restart replays the log, rather than risk acknowledging writes replay
// would refuse.

// FsyncPolicy selects how aggressively the store flushes durability
// writes (WAL appends, snapshot files, and their parent directory).
type FsyncPolicy int

const (
	// FsyncAlways fsyncs every WAL append (batched by group commit) and
	// snapshot write before the mutating call returns: a kill -9 or power
	// loss never loses an acknowledged mutation. This is the default and
	// the only policy the durability tests certify.
	FsyncAlways FsyncPolicy = iota
	// FsyncOff skips fsync everywhere: each group commit still writes its
	// batch before releasing its waiters, so the record is in the OS page
	// cache when the call returns. A process crash (kill -9) still
	// loses nothing — the kernel has the data — but power loss can. For
	// benchmarks and bulk loads.
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

// ErrWALBroken reports a WAL latched unusable after a failed group
// commit or reset. Further mutations on the shard are refused until a
// restart rather than risk acknowledging writes that replay would discard
// (see the failure model above).
var ErrWALBroken = errors.New("authserve: WAL broken, shard mutations disabled")

// walFile is the part of an open file the log writes through, and reads
// its committed records back through for a fold (compact.go). *os.File is
// the only implementation outside tests, which wrap it to inject real I/O
// errors.
type walFile interface {
	io.ReaderAt
	Write([]byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// walBatch is the open group commit: every record submitted while the
// previous batch commits frames itself into buf, and all of the batch's
// waiters park on one done channel — a single close broadcasts the
// verdict, instead of one channel send (and one wakeup hand-off) per
// record.
type walBatch struct {
	buf     []byte
	records int
	done    chan struct{}
	err     error // batch verdict; set before done is closed
}

// walPending is a submitted record whose durability verdict is still
// outstanding; the caller must wait() exactly once, after releasing the
// shard lock.
type walPending struct {
	w *wal
	b *walBatch
}

// wait returns the verdict on the record's batch. It parks until the
// batch is decided or the commit token is free; if it takes the token
// first, it leads: it commits the whole open batch — its own, plus every
// record that queued behind it — and hands the token on. It must be
// called without the shard lock held — overlapping the durability waits
// of independent requests is the whole point of group commit.
func (p *walPending) wait() error {
	w := p.w
	defer w.waiters.Add(-1)
	select {
	case <-p.b.done:
		return p.b.err
	case w.token <- struct{}{}:
	}
	select {
	case <-p.b.done: // decided while this waiter queued for the token
	default:
		// Still undecided, so the batch is still the open one. Yield
		// before swapping it out: every submitter that is already
		// runnable gets to join it first. Without this, the first
		// waiter to resubmit after a commit leads a batch of one, and
		// its fsync strands the rest in the next batch — a lockstep
		// convoy that halves the batching factor (worst on few cores).
		// For a lone writer the yield is a no-op costing well under a
		// microsecond against the fsync it precedes.
		runtime.Gosched()
		w.commitOpen()
	}
	<-w.token
	return p.b.err
}

// wal is one shard's open log file. Submission (submit) and the
// barrier, reset and close calls are always made with the owning shard's
// lock held, but commits run in whichever waiter leads, outside that
// lock, so the batch/size/broken state has its own mutex.
type wal struct {
	f    walFile
	sync bool // fsync each batch and reset (FsyncAlways)

	// token is the one-slot commit token: a send takes it, a receive
	// gives it back. Only its holder swaps the open batch out or writes,
	// syncs or truncates f. Lock order is shard lock, then token: flush,
	// reset and close take it under the shard lock, and a leader never
	// takes a shard lock while it holds the token.
	token chan struct{}

	mu     sync.Mutex
	cur    *walBatch // open batch accepting submissions; nil when empty
	size   int64     // committed bytes on disk
	broken bool      // see the failure model in the package comment
	closed bool      // close() ran: refuse new submits

	// waiters counts submitted records whose caller has not yet returned
	// from wait(); exported to the ropuf_authserve_wal_waiters gauge.
	waiters atomic.Int64

	// onCommit observes each successful group commit (records, bytes, new
	// committed size, write+fsync duration). It runs in the leader, with
	// the token held.
	onCommit func(records int, bytes, size int64, d time.Duration)
}

// openWAL opens (creating if absent) a shard's log, replays its records
// into v, and truncates any torn tail. It returns how many records were
// replayed and how many torn bytes were discarded.
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
		f:     f,
		size:  valid,
		sync:  policy == FsyncAlways,
		token: make(chan struct{}, 1),
	}
	return w, replayed, torn, nil
}

// submit frames one record into the open batch and returns a pending
// handle. Called with the shard lock held; the caller must release the
// lock and wait() before acknowledging the mutation (rolling it back if
// the wait fails).
func (w *wal) submit(payload []byte) (*walPending, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, errors.New("authserve: WAL closed")
	}
	if w.broken {
		return nil, ErrWALBroken
	}
	b := w.cur
	if b == nil {
		b = &walBatch{done: make(chan struct{})}
		w.cur = b
	}
	b.buf = recordio.Append(b.buf, payload)
	b.records++
	w.waiters.Add(1)
	return &walPending{w: w, b: b}, nil
}

// flush is the compaction barrier: it returns once every record
// submitted before it has a durability verdict. Taking the token waits
// out any commit in flight; flush then commits whatever is still queued
// itself. Called with the shard lock held, which guarantees no new
// records can race in behind the barrier. Snapshotting without this
// barrier could persist in-memory state whose WAL records later fail and
// roll back — resurrecting a mutation whose caller was told it did not
// happen.
func (w *wal) flush() error {
	w.token <- struct{}{}
	w.commitOpen()
	<-w.token
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken || w.closed {
		return ErrWALBroken
	}
	return nil
}

// commitOpen swaps the open batch out and commits it with a single write
// (and, under FsyncAlways, a single fsync), then broadcasts the verdict
// to every waiter. On I/O failure the whole batch fails, the file is
// truncated back to the committed prefix, and the log latches broken
// (see the failure model). The caller holds the token.
func (w *wal) commitOpen() {
	w.mu.Lock()
	b, broken := w.cur, w.broken
	w.cur = nil
	w.mu.Unlock()
	if b == nil {
		return
	}
	defer close(b.done)
	if broken {
		b.err = ErrWALBroken
		return
	}
	start := time.Now()
	_, err := w.f.Write(b.buf)
	if err == nil && w.sync {
		err = w.f.Sync()
	}
	elapsed := time.Since(start)
	w.mu.Lock()
	if err != nil {
		// The kernel may have dropped the batch's dirty pages; nothing
		// past the last *acknowledged* batch can be trusted. Restore the
		// committed prefix and latch broken — a partial batch must never
		// be acknowledged (causality: later records may depend on
		// earlier ones in this very batch).
		if terr := w.f.Truncate(w.size); terr != nil {
			err = errors.Join(err, terr)
		}
		w.broken = true
		w.mu.Unlock()
		b.err = fmt.Errorf("authserve: WAL group commit: %w", err)
		return
	}
	w.size += int64(len(b.buf))
	size := w.size
	w.mu.Unlock()
	if w.onCommit != nil {
		w.onCommit(b.records, int64(len(b.buf)), size, elapsed)
	}
}

// committedSize returns the bytes committed to the file (queued records
// excluded).
func (w *wal) committedSize() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// latched reports whether the log is latched broken.
func (w *wal) latched() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.broken
}

// reset empties the log after its contents have been folded into a
// durable snapshot (compaction). The caller holds the shard lock and has
// already run flush(), so the queue is empty; the truncate is fsynced
// under the same policy as appends — a crash right after reset must not
// resurrect the pre-compaction tail lengths.
func (w *wal) reset() error {
	w.token <- struct{}{}
	defer func() { <-w.token }()
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

// close refuses new submits, commits whatever is still queued — so every
// submitted record gets a verdict, whenever its caller waits — and
// closes the file. A nil wal (persistence off) closes as a no-op.
func (w *wal) close() error {
	if w == nil {
		return nil
	}
	w.token <- struct{}{}
	defer func() { <-w.token }()
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.commitOpen()
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
