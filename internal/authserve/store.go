// Package authserve turns the in-process auth.Verifier into a network
// service: a concurrent-safe sharded device store with WAL-backed crash
// recovery (store.go, wal.go, compact.go) and an HTTP JSON API with
// bounded-queue backpressure, per-route metrics/spans, and graceful drain
// (server.go).
//
// # Concurrency model
//
// auth.Verifier is documented as not safe for concurrent use, so the store
// never shares one across goroutines. Devices are partitioned by an FNV-1a
// hash of their ID into N shards; each shard owns one Verifier (plus the
// outstanding-challenge table and write-ahead log for its devices) behind
// its own RWMutex. Operations on different shards never contend;
// operations on one shard serialize, which is exactly the Verifier's
// contract.
//
// # Durability model
//
// With a data directory configured, every mutation (enroll, challenge
// issuance) appends one checksummed record to the owning shard's
// write-ahead log and waits for a group commit to write it — and, under
// FsyncAlways, fsync it — *before* the call returns: O(record) work, and
// one write+fsync amortized over every record that queued while the
// previous batch was flushing. The first waiter to take the shard log's
// commit token leads that commit itself; the store runs no goroutine of
// its own (wal.go). The mutation is applied in memory and the record
// enqueued under the shard lock, but the durability wait happens after
// the lock is released, so concurrent mutations on one shard overlap
// their fsync waits instead of serializing them. The price
// is a visibility window: a mutation is briefly observable in memory
// before it is durable. Writers never acknowledge inside that window (they
// wait first, and roll the mutation back — re-acquiring the lock — if the
// commit fails), and challenge IDs only reach the network after the wait,
// so nothing a client can act on precedes its own durability. Read-only
// endpoints may observe the window; they expose no consumed bits. A failed
// group commit latches the shard's WAL broken, failing every queued and
// later mutation until a restart, because a later record may depend on an
// earlier one in the failed batch — committing a suffix without its prefix
// would let replay see effects without causes. Consumed-pair state is
// still durable by the time a challenge reaches the network: a device
// re-challenged after a crash can never be asked to re-expose bits it
// already revealed.
//
// Recovery at Open is snapshot + log replay: load the shard snapshot if
// one exists, then re-apply the log's records, truncating any torn tail
// (a record cut short by the crash) first. Replay is idempotent — an
// enroll record whose device is already in the snapshot is skipped, a
// consume record re-marks already-consumed pairs — so the crash window
// between a compaction's snapshot rename and its log truncation is safe.
// Snapshot and log are one format: a shard snapshot (shard-NNNN.snap) is
// the log compacted to one enroll record per device plus one consume
// record per device with consumed pairs, and both load through auth's one
// record decoder. The two files are also where each device's enroll body
// lives: a shard's verifier keeps only its bitsets, and a fold copies the
// bodies from the old snapshot and the log. The request whose commit
// carries a log past a size threshold folds it into the snapshot
// (compact.go): the snapshot is written durably first (temp file, fsync,
// rename, directory fsync — under FsyncAlways the crash leaves either the
// old or the new snapshot, both with enough log to reconstruct the
// state), then the log is truncated.
//
// Outstanding challenge IDs are deliberately NOT persisted: a restart
// invalidates every issued-but-unverified challenge, so responses to
// pre-crash challenges are rejected.
package authserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ropuf/internal/auth"
	"ropuf/internal/bits"
	"ropuf/internal/core"
	"ropuf/internal/obs"
	"ropuf/internal/recordio"
	"ropuf/internal/rngx"
)

// ErrUnknownChallenge reports a verify against a challenge ID that was
// never issued, was already consumed by a previous verify, or was
// invalidated by a server restart. The three cases are indistinguishable
// on purpose: a replayed response must learn nothing.
var ErrUnknownChallenge = errors.New("authserve: unknown or already-used challenge")

// ErrPersist reports a mutation whose durability write (WAL append)
// failed. The in-memory effect was rolled back before the error was
// returned, so the same call can be retried once a restart has cleared
// the shard's latch; the HTTP layer maps this to a 500, never to the 4xx
// validation contract.
var ErrPersist = errors.New("authserve: durability write failed")

// StoreOptions configures Open.
type StoreOptions struct {
	// Tolerance is the accepted Hamming-distance fraction (see
	// auth.Verifier.Tolerance). Defaults to 0.10.
	Tolerance float64
	// Shards is the number of lock shards; defaults to 16.
	Shards int
	// Dir, when non-empty, enables WAL-backed persistence in that
	// directory (created if absent). Empty means in-memory only.
	Dir string
	// Seed feeds the deterministic RNG used for challenge pair selection
	// and challenge IDs. Defaults to 1; serving binaries should pass a
	// random seed (see cmd/ropuf serve).
	Seed uint64
	// CompactBytes is the per-shard WAL size at which the request whose
	// commit reaches it folds the log into the shard snapshot. 0 means
	// the 4 MiB default; negative disables threshold compaction (the log
	// still folds at SaveAll / graceful drain).
	CompactBytes int64
	// Fsync selects the durability flush policy for WAL appends and
	// snapshot writes. The zero value is FsyncAlways.
	Fsync FsyncPolicy
	// Registry, when non-nil, receives the WAL metrics (group-commit
	// latency and batch size, record/byte counters, log size,
	// compactions). Nil means a private registry.
	Registry *obs.Registry
	// Tracer, when non-nil, emits an authserve.wal_replay span covering
	// startup recovery.
	Tracer *obs.Tracer
	// TelemetryWindow is the rolling window the per-device consumption
	// counters cover (see telemetry.go); the abuse scorer inherits it.
	// Defaults to 60s.
	TelemetryWindow time.Duration
}

func (o StoreOptions) withDefaults() StoreOptions {
	if o.Tolerance == 0 {
		o.Tolerance = 0.10
	}
	if o.Shards <= 0 {
		o.Shards = 16
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.CompactBytes == 0 {
		o.CompactBytes = 4 << 20
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.TelemetryWindow <= 0 {
		o.TelemetryWindow = time.Minute
	}
	return o
}

// DeviceInfo is a point-in-time summary of one enrolled device.
type DeviceInfo struct {
	ID          string
	Pairs       int // total measured pairs
	Bits        int // usable (unmasked) pairs
	Fresh       int // pairs still available for challenges
	Outstanding int // issued-but-unverified challenges
}

// Store is the concurrent device database behind the HTTP API.
type Store struct {
	opt    StoreOptions
	shards []*shard
	// snapshotFailures counts failed snapshot writes (compaction and
	// SaveAll); /healthz degrades when failures land inside its rolling
	// window.
	snapshotFailures atomic.Int64
	// walFailures counts failed WAL appends/resets; every one of them
	// made a mutating request fail (or a compaction stop) and latched its
	// shard, which /healthz reports as wal_stalled until restart.
	walFailures atomic.Int64

	walRecords      *obs.CounterVec
	walRecEnrolls   *obs.Counter // walRecords series, resolved once for the hot path
	walRecConsumes  *obs.Counter
	walBytes        *obs.Counter
	walGroupRecords *obs.Histogram
	walGroupDur     *obs.Histogram
	compactions     *obs.Counter
	shardDevices    *obs.GaugeVec

	closeOnce sync.Once
	closeErr  error

	// now is the telemetry clock, swapped by tests for deterministic
	// windows and wire goldens; bucketWidth caches TelemetryWindow /
	// telemetryBuckets for the ring-step arithmetic.
	now         func() time.Time
	bucketWidth time.Duration
}

// SnapshotFailures returns the cumulative count of failed shard snapshot
// writes since the store was opened.
func (s *Store) SnapshotFailures() int64 { return s.snapshotFailures.Load() }

// LatchedShards returns the labels of the shards whose WAL is latched
// broken: their mutations fail until a restart replays the log.
func (s *Store) LatchedShards() []string {
	var out []string
	for _, sh := range s.shards {
		if sh.wal != nil && sh.wal.latched() {
			out = append(out, sh.label)
		}
	}
	return out
}

// WALBacklogBytes returns the largest per-shard WAL size — the compaction
// backlog. A backlog far past CompactBytes means folds are failing (or
// compaction is disabled while the log grows unbounded).
func (s *Store) WALBacklogBytes() int64 {
	var max int64
	for _, sh := range s.shards {
		if n := sh.walSize.Load(); n > max {
			max = n
		}
	}
	return max
}

// CompactBytes returns the per-shard WAL compaction threshold (negative =
// threshold compaction disabled).
func (s *Store) CompactBytes() int64 { return s.opt.CompactBytes }

type shard struct {
	mu          sync.RWMutex
	v           *auth.Verifier // bodiless: the snapshot and WAL hold the enroll bodies
	nonceRNG    *rngx.RNG
	outstanding map[string]*auth.Challenge // challenge ID -> issued challenge
	stats       map[string]*devStats       // rolling consumption telemetry (memory-only)
	label       string                     // zero-padded shard index, for metric labels
	path        string                     // snapshot file; "" = persistence off
	wal         *wal                       // append-only mutation log; nil = persistence off
	syncWrites  bool                       // fsync snapshot files + parent dir (FsyncAlways)
	// walSize mirrors wal.size for lock-free reads (metrics, compaction
	// backlog checks); the authoritative value lives in wal under mu.
	walSize atomic.Int64
	// enrollRec is the buffer Enroll encodes an enroll record into, under
	// mu; the WAL copies the record out before the lock is released.
	enrollRec []byte
}

type manifestJSON struct {
	Version   int     `json:"version"`
	Shards    int     `json:"shards"`
	Tolerance float64 `json:"tolerance"`
}

// manifestVersion 2 marks shard snapshots in the record-log format;
// version 1 directories held JSON snapshots and are refused.
const manifestVersion = 2

// Open creates the store, recovering state from opt.Dir: each shard loads
// its snapshot (if any), then replays its write-ahead log over it. The
// shard count and tolerance are fixed at first creation (they determine
// device placement and the meaning of stored verdicts); opening an
// existing directory with different options fails.
func Open(opt StoreOptions) (*Store, error) {
	opt = opt.withDefaults()
	s := &Store{
		opt:         opt,
		shards:      make([]*shard, opt.Shards),
		now:         time.Now,
		bucketWidth: opt.TelemetryWindow / telemetryBuckets,
	}
	reg := opt.Registry
	s.walRecords = reg.NewCounterVec("ropuf_authserve_wal_records_total",
		"WAL records appended, by record type.", "type")
	s.walRecEnrolls = s.walRecords.With("enroll")
	s.walRecConsumes = s.walRecords.With("consume")
	s.walBytes = reg.NewCounter("ropuf_authserve_wal_appended_bytes_total",
		"Bytes appended to shard WALs (headers included).")
	s.walGroupRecords = reg.NewHistogram("ropuf_authserve_wal_group_commit_records",
		"Records folded into each WAL group commit — the batching factor. "+
			"A p50 of 1 under concurrent load means group commit is not engaging.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	s.walGroupDur = reg.NewHistogram("ropuf_authserve_wal_group_commit_duration_seconds",
		"Latency of each WAL group commit's write+fsync.", nil)
	s.compactions = reg.NewCounter("ropuf_authserve_wal_compactions_total",
		"Shard WALs folded into their snapshot.")
	reg.NewGaugeFunc("ropuf_authserve_wal_size_bytes",
		"Total bytes across all shard WALs awaiting compaction.",
		func() float64 {
			var n int64
			for _, sh := range s.shards {
				n += sh.walSize.Load()
			}
			return float64(n)
		})
	reg.NewCounterFunc("ropuf_authserve_wal_append_failures_total",
		"WAL appends/resets that failed (each failed a mutating request).",
		func() float64 { return float64(s.walFailures.Load()) })
	reg.NewGaugeFunc("ropuf_authserve_wal_waiters",
		"Mutations parked on a WAL group commit right now.",
		func() float64 {
			var n int64
			for _, sh := range s.shards {
				if sh != nil && sh.wal != nil {
					n += sh.wal.waiters.Load()
				}
			}
			return float64(n)
		})
	s.shardDevices = reg.NewGaugeVec("ropuf_authserve_shard_devices",
		"Devices enrolled per shard — a skewed distribution here means the "+
			"FNV placement is fighting the ID scheme.", "shard")

	if opt.Dir != "" {
		if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("authserve: data dir: %w", err)
		}
		if err := s.checkManifest(); err != nil {
			return nil, err
		}
	}
	_, span := opt.Tracer.Start(context.Background(), "authserve.wal_replay")
	var replayed, tornBytes, restored int64
	parent := rngx.New(opt.Seed)
	for i := range s.shards {
		sh, records, torn, err := s.openShard(i, parent)
		if err != nil {
			// Close the logs of the shards already open: each holds a file.
			s.Close()
			return nil, err
		}
		s.shards[i] = sh
		replayed += int64(records)
		tornBytes += torn
		restored += int64(sh.v.NumDevices())
		s.shardDevices.With(sh.label).Set(float64(sh.v.NumDevices()))
	}
	span.SetAttr("records", strconv.FormatInt(replayed, 10))
	span.SetAttr("torn_bytes", strconv.FormatInt(tornBytes, 10))
	span.SetAttr("devices", strconv.FormatInt(restored, 10))
	span.End()
	return s, nil
}

// openShard recovers shard i — its snapshot if one exists, then its
// write-ahead log replayed over it — and returns the records replayed and
// the torn bytes discarded.
func (s *Store) openShard(i int, parent *rngx.RNG) (sh *shard, replayed int, torn int64, err error) {
	opt := s.opt
	sh = &shard{
		nonceRNG:    parent.Split(),
		outstanding: make(map[string]*auth.Challenge),
		stats:       make(map[string]*devStats),
		label:       fmt.Sprintf("%04d", i),
		syncWrites:  opt.Fsync == FsyncAlways,
	}
	if opt.Dir != "" {
		sh.path = filepath.Join(opt.Dir, fmt.Sprintf("shard-%04d.snap", i))
		if f, err := os.Open(sh.path); err == nil {
			sh.v, err = auth.LoadBodilessVerifier(f, parent.Split())
			f.Close()
			if err != nil {
				return nil, 0, 0, fmt.Errorf("authserve: loading %s: %w", sh.path, err)
			}
			if sh.v.Tolerance != opt.Tolerance {
				return nil, 0, 0, fmt.Errorf("authserve: %s has tolerance %g, store wants %g", sh.path, sh.v.Tolerance, opt.Tolerance)
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, 0, 0, fmt.Errorf("authserve: loading %s: %w", sh.path, err)
		}
	}
	if sh.v == nil {
		if sh.v, err = auth.NewBodilessVerifier(opt.Tolerance, parent.Split()); err != nil {
			return nil, 0, 0, fmt.Errorf("authserve: %w", err)
		}
	}
	if opt.Dir == "" {
		return sh, 0, 0, nil
	}
	sh.wal, replayed, torn, err = openWAL(walPathFor(opt.Dir, i), opt.Fsync, sh.v)
	if err != nil {
		return nil, 0, 0, err
	}
	// Runs in the leader of each successful group commit, which holds the
	// log's commit token and no shard lock.
	sh.wal.onCommit = func(records int, _, size int64, d time.Duration) {
		sh.walSize.Store(size)
		s.walGroupRecords.Observe(float64(records))
		s.walGroupDur.Observe(d.Seconds())
	}
	sh.walSize.Store(sh.wal.size)
	return sh, replayed, torn, nil
}

// Close closes the shard WAL files, committing any records still queued
// first. It does not fold the logs — call SaveAll first for a clean
// shutdown, or skip it and let the next Open replay them.
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		var errs []error
		for _, sh := range s.shards {
			if sh == nil {
				continue // Open failed before this shard
			}
			sh.mu.Lock()
			errs = append(errs, sh.wal.close())
			sh.mu.Unlock()
		}
		s.closeErr = errors.Join(errs...)
	})
	return s.closeErr
}

// checkManifest validates an existing manifest against the options, or
// writes a fresh one for a new data directory.
func (s *Store) checkManifest() error {
	path := filepath.Join(s.opt.Dir, "manifest.json")
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		m := manifestJSON{Version: manifestVersion, Shards: s.opt.Shards, Tolerance: s.opt.Tolerance}
		return atomicWrite(path, s.opt.Fsync == FsyncAlways, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(m)
		})
	}
	if err != nil {
		return fmt.Errorf("authserve: manifest: %w", err)
	}
	var m manifestJSON
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("authserve: manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return fmt.Errorf("authserve: data dir has manifest version %d, this build reads only version %d "+
			"(version 1 held JSON shard snapshots)", m.Version, manifestVersion)
	}
	if m.Shards != s.opt.Shards {
		return fmt.Errorf("authserve: data dir has %d shards, store configured for %d", m.Shards, s.opt.Shards)
	}
	if m.Tolerance != s.opt.Tolerance {
		return fmt.Errorf("authserve: data dir has tolerance %g, store configured for %g", m.Tolerance, s.opt.Tolerance)
	}
	return nil
}

// shardFor routes a device ID to its owning shard via FNV-1a, computed
// inline — hash.Hash32 would cost two allocations (the hasher and the
// string→[]byte copy) on every store operation. The modulo is done in
// uint32 space: converting the hash to int first would go negative (and
// panic on the index) for high-bit hashes on 32-bit platforms.
func (s *Store) shardFor(id string) *shard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return s.shards[h%uint32(len(s.shards))]
}

// submitLocked hands one mutation record to the shard's WAL; the caller
// holds the shard lock. On success the caller must release the shard
// lock, wait on the pending via waitDurable, and roll its in-memory
// mutation back if the wait fails. A non-nil error is the latch refusing
// the record: nothing was enqueued and the caller rolls back under its
// current lock hold.
func (s *Store) submitLocked(sh *shard, payload []byte) (*walPending, error) {
	pend, err := sh.wal.submit(payload)
	if err != nil {
		s.walFailures.Add(1)
		return nil, fmt.Errorf("%w: %w", ErrPersist, err)
	}
	return pend, nil
}

// waitDurable parks on a pending group commit (nil, from a store without
// persistence, is a no-op). Must be called without the shard lock held.
func (s *Store) waitDurable(pend *walPending) error {
	if pend == nil {
		return nil
	}
	if err := pend.wait(); err != nil {
		s.walFailures.Add(1)
		return fmt.Errorf("%w: %w", ErrPersist, err)
	}
	return nil
}

// recordAppended bumps the per-type durable-record counters once a
// record's commit is confirmed. The two series are resolved once at Open
// — With(...) on the hot path would pay a variadic slice and a family
// lookup per request.
func (s *Store) recordAppended(rec *obs.Counter, payloadLen int) {
	rec.Inc()
	s.walBytes.Add(recordio.HeaderLen + int64(payloadLen))
}

// Enroll registers a device and, with persistence enabled, makes the
// enrollment durable before returning. The in-memory mutation and the
// WAL submit happen under the shard lock; the group-commit wait happens
// after it is released, so concurrent enrolls on one shard overlap their
// fsync waits. If the durability write fails the in-memory enrollment is
// rolled back (re-acquiring the lock when the failure surfaces at commit
// time), so the client's retry after a restart starts clean instead of
// hitting ErrDuplicateDevice against a record that was never made
// durable. If the commit carries the shard's log to the compaction
// threshold, Enroll folds it before returning (compact.go).
func (s *Store) Enroll(id string, pairs []core.Pair, mode core.Mode) (DeviceInfo, error) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	enr, payload, err := sh.v.EnrollRecord(sh.enrollRec[:0], id, pairs, mode)
	if err != nil {
		sh.mu.Unlock()
		return DeviceInfo{}, err
	}
	sh.enrollRec = payload
	var pend *walPending
	if sh.wal != nil {
		if pend, err = s.submitLocked(sh, payload); err != nil {
			sh.v.Unenroll(id)
			sh.mu.Unlock()
			return DeviceInfo{}, err
		}
	}
	payloadLen := len(payload)
	s.shardDevices.With(sh.label).Add(1)
	fresh, _ := sh.v.NumFresh(id)
	info := DeviceInfo{
		ID:    id,
		Pairs: len(enr.Selections),
		Bits:  enr.NumBits(),
		Fresh: fresh,
	}
	sh.mu.Unlock()
	if err := s.waitDurable(pend); err != nil {
		sh.mu.Lock()
		sh.v.Unenroll(id)
		s.shardDevices.With(sh.label).Add(-1)
		sh.mu.Unlock()
		return DeviceInfo{}, err
	}
	if sh.wal != nil {
		s.recordAppended(s.walRecEnrolls, payloadLen)
		s.compactIfDue(sh)
	}
	return info, nil
}

// Challenge draws a single-use challenge of length k and returns its
// one-time ID plus the device's remaining fresh-pair count after the
// draw. The consumed-pair state is durable before the challenge is
// returned — the group-commit wait happens after the shard lock is
// released, but the nonce only reaches the network once the wait
// succeeds, and nobody else can learn it meanwhile. If the durability
// write fails the consumption is rolled back — the pairs never left the
// process, so returning them to the fresh pool leaks nothing and the
// client's retry after a restart can draw again. Like Enroll, it folds
// a log its commit carried to the compaction threshold.
func (s *Store) Challenge(id string, k int) (string, *auth.Challenge, int, error) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	ch, err := sh.v.NewChallenge(id, k)
	if err != nil {
		sh.mu.Unlock()
		return "", nil, 0, err
	}
	var pend *walPending
	payloadLen := 0
	if sh.wal != nil {
		payload, perr := auth.AppendConsumeRecord(nil, id, ch.Pairs)
		err = perr
		if err == nil {
			pend, err = s.submitLocked(sh, payload)
			payloadLen = len(payload)
		}
		if err != nil {
			if rerr := sh.v.UnmarkUsed(id, ch.Pairs); rerr != nil {
				err = errors.Join(err, rerr)
			}
			sh.mu.Unlock()
			return "", nil, 0, err
		}
	}
	nonce := nonceHex(sh.nonceRNG.Uint64(), sh.nonceRNG.Uint64())
	sh.outstanding[nonce] = ch
	d := sh.statsFor(id)
	d.challenges++
	d.advance(bucketStep(s.now(), s.bucketWidth))
	b := &d.ring[d.lastStep%telemetryBuckets]
	b.challenges++
	b.pairs += int64(len(ch.Pairs))
	fresh, _ := sh.v.NumFresh(id)
	sh.mu.Unlock()
	if err := s.waitDurable(pend); err != nil {
		// Roll back under a fresh lock hold. The telemetry unwind is
		// best-effort: if the ring advanced during the wait the counts
		// come off the current bucket — acceptable skew on a path that
		// only runs when the disk is failing. UnmarkUsed can report
		// unknown-device if the device's own enroll record died in the
		// same failed batch and its caller rolled back first; the end
		// state (device gone, pairs moot) is consistent either way.
		sh.mu.Lock()
		delete(sh.outstanding, nonce)
		rerr := sh.v.UnmarkUsed(id, ch.Pairs)
		d := sh.statsFor(id)
		d.challenges--
		b := &d.ring[d.lastStep%telemetryBuckets]
		b.challenges--
		b.pairs -= int64(len(ch.Pairs))
		sh.mu.Unlock()
		if rerr != nil && !errors.Is(rerr, auth.ErrUnknownDevice) {
			err = errors.Join(err, rerr)
		}
		return "", nil, 0, err
	}
	if sh.wal != nil {
		s.recordAppended(s.walRecConsumes, payloadLen)
		s.compactIfDue(sh)
	}
	return nonce, ch, fresh, nil
}

// nonceHex renders two RNG words as the 32-hex-digit challenge ID —
// equivalent to fmt.Sprintf("%016x%016x", hi, lo) at one allocation.
func nonceHex(hi, lo uint64) string {
	const digits = "0123456789abcdef"
	var b [32]byte
	for i := 0; i < 16; i++ {
		b[15-i] = digits[hi&0xf]
		hi >>= 4
		b[31-i] = digits[lo&0xf]
		lo >>= 4
	}
	return string(b[:])
}

// Verify checks a response against the outstanding challenge, consuming
// the challenge ID whatever the verdict. limit is the largest accepted
// Hamming distance at the store's tolerance.
func (s *Store) Verify(id, challengeID string, response *bits.Stream) (ok bool, distance, limit int, err error) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ch, found := sh.outstanding[challengeID]
	if !found || ch.DeviceID != id {
		return false, 0, 0, ErrUnknownChallenge
	}
	delete(sh.outstanding, challengeID)
	ok, distance, err = sh.v.Verify(ch, response)
	if err != nil {
		return false, 0, 0, err
	}
	d := sh.statsFor(id)
	now := s.now()
	d.lastVerify = now.Unix()
	d.advance(bucketStep(now, s.bucketWidth))
	b := &d.ring[d.lastStep%telemetryBuckets]
	b.verifies++
	if !ok {
		b.fails++
	}
	return ok, distance, int(s.opt.Tolerance * float64(len(ch.Pairs))), nil
}

// Device summarizes one enrolled device.
func (s *Store) Device(id string) (DeviceInfo, error) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rec, err := sh.v.Device(id)
	if err != nil {
		return DeviceInfo{}, err
	}
	fresh, err := sh.v.NumFresh(id)
	if err != nil {
		return DeviceInfo{}, err
	}
	out := 0
	for _, ch := range sh.outstanding {
		if ch.DeviceID == id {
			out++
		}
	}
	return DeviceInfo{
		ID:          id,
		Pairs:       rec.NumPairs(),
		Bits:        rec.NumBits(),
		Fresh:       fresh,
		Outstanding: out,
	}, nil
}

// NumDevices counts enrolled devices across all shards.
func (s *Store) NumDevices() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.v.NumDevices()
		sh.mu.RUnlock()
	}
	return n
}

// SaveAll folds every shard's WAL into its snapshot (a full compaction) —
// run at graceful shutdown so a restart replays nothing. Without a data
// directory it does nothing.
func (s *Store) SaveAll() error {
	var errs []error
	for _, sh := range s.shards {
		sh.mu.Lock()
		errs = append(errs, s.compactShardLocked(sh))
		sh.mu.Unlock()
	}
	return errors.Join(errs...)
}

// persistLocked writes the shard's snapshot through atomicWrite. The
// verifier keeps no enroll bodies, so auth's SaveFrom copies each one from
// the old snapshot or from the WAL's committed records, which together
// hold every device the verifier does. The caller holds the shard lock
// and has run the WAL barrier, so neither file changes while they are
// read. Empty shards are skipped (no file until the first device lands).
func (sh *shard) persistLocked() error {
	if sh.path == "" || sh.v.NumDevices() == 0 {
		return nil
	}
	var snap io.Reader
	f, err := os.Open(sh.path)
	if err == nil {
		defer f.Close()
		snap = f
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("authserve: snapshot: %w", err)
	}
	log := io.NewSectionReader(sh.wal.f, 0, sh.wal.committedSize())
	err = atomicWrite(sh.path, sh.syncWrites, func(w io.Writer) error {
		return sh.v.SaveFrom(w, snap, log)
	})
	if err != nil {
		return fmt.Errorf("authserve: snapshot: %w", err)
	}
	return nil
}

// atomicWrite replaces path with what write produces: temp file, fsync
// (when sync), rename, parent-directory fsync. With sync a crash at any
// point leaves either the old or the new file durable on disk, never a
// torn or vanished one — without the file and directory syncs the rename
// could be reordered after the crash and surface an empty file.
func atomicWrite(path string, sync bool, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if sync {
		return syncDir(filepath.Dir(path))
	}
	return nil
}
