package authserve

// WAL compaction. The log keeps mutations O(record), but an unbounded log
// makes recovery O(history); compaction bounds it by folding any shard
// log past StoreOptions.CompactBytes back into the shard's snapshot. No
// goroutine does this in the background: the request whose
// commit carries the log to the threshold runs the fold itself, after its
// own commit succeeded and before it answers.
//
// # State machine
//
// A compaction of one shard, under that shard's lock, is three steps:
//
//  0. barrier: flush the group-commit queue (wal.flush). With the fsync
//     wait decoupled from the shard lock, in-memory state can be ahead
//     of the durable log; snapshotting such state would persist
//     mutations whose commit may still fail and roll back. The barrier
//     waits until every previously submitted record has a verdict —
//     and holding the shard lock guarantees no new ones race in.
//  1. snapshot: write the verifier state durably (temp file, fsync,
//     rename, directory fsync — persistLocked). The verifier keeps no
//     enroll bodies, so the writer (auth's SaveFrom) merges: it streams
//     the old snapshot in its sorted-ID order and copies each device's
//     body from there, or else from the device's first enroll record in
//     the log's committed records, which it reads first and holds. A
//     device with no record in either file, a snapshot device the
//     verifier does not hold, or a torn frame fails the fold before the
//     rename, like a failed write. The snapshot now contains everything
//     the log does.
//  2. truncate: reset the WAL to empty and fsync the truncation.
//
// Crash anywhere before step 1's rename finishes: the old snapshot plus
// the full log recover the state. Crash between the rename and step 2:
// the NEW snapshot plus the full log — replay is idempotent (duplicate
// enrolls skipped, consume re-marks), so recovery converges to the same
// state. Crash after step 2: the new snapshot plus an empty log. There is
// no ordering in which an acknowledged mutation is lost. A failed step 2
// leaves that same between-steps state on disk and latches the shard's
// log, so the shard stays read-only until a restart replays it.
//
// Holding the shard lock for the snapshot write pauses that one shard's
// requests for the write's duration; the other shards keep serving. The
// request that runs the fold waits for it too, so its
// committed-but-unacknowledged window (the span between its fsync and its
// response) widens by the fold; DESIGN.md §11 measures a fold at the
// 4 MiB default. The alternative (copy-on-write snapshots) buys latency
// with a full state copy — not worth it at the shard sizes the threshold
// implies.

// compactIfDue folds sh's log into its snapshot once a commit has carried
// it to the threshold. Enroll and Challenge call it after their own
// commit succeeded, without the shard lock; the size is checked again
// under the lock, so when several requests cross at once only the first
// folds. Errors are not returned — the request has already committed.
// They are counted (snapshotFailures or walFailures) and surface through
// /healthz; the log keeps growing and the next request on the shard
// retries.
func (s *Store) compactIfDue(sh *shard) {
	if s.opt.CompactBytes <= 0 || sh.walSize.Load() < s.opt.CompactBytes {
		return
	}
	sh.mu.Lock()
	if sh.walSize.Load() >= s.opt.CompactBytes {
		_ = s.compactShardLocked(sh)
	}
	sh.mu.Unlock()
}

// compactShardLocked folds one shard's WAL into its snapshot; the caller
// holds the shard lock. An empty log is a no-op (the snapshot is already
// current).
func (s *Store) compactShardLocked(sh *shard) error {
	if sh.wal == nil {
		return nil
	}
	if err := sh.wal.flush(); err != nil {
		// A failed barrier means a group commit failed (the WAL is
		// latched broken): the in-memory state contains rolled-back (or
		// about-to-roll-back) mutations and must not be snapshotted.
		return err
	}
	if sh.wal.committedSize() == 0 {
		return nil
	}
	if err := sh.persistLocked(); err != nil {
		s.snapshotFailures.Add(1)
		return err
	}
	if err := sh.wal.reset(); err != nil {
		s.walFailures.Add(1)
		return err
	}
	sh.walSize.Store(0)
	s.compactions.Inc()
	return nil
}
