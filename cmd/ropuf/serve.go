package main

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"ropuf/internal/authserve"
	"ropuf/internal/obs"
	"ropuf/internal/obs/audit"
)

// runServe starts the PUF authentication HTTP service: the four /v1 routes
// (enroll, challenge, verify, devices/{id}) plus /metrics, /healthz and
// /debug/pprof, all on one address. /healthz is SLO-aware: it answers
// 503 with machine-readable reasons while the error budget (-slo-objective
// over -slo-window) burns faster than -max-burn-rate, the admission queue
// is saturated, snapshots are failing, or the write-ahead log is stalled —
// and recovers to 200 once the window clears. With -data the device store
// survives restarts: every mutation appends a checksummed record to a
// per-shard write-ahead log (fsynced per -fsync) and restart recovery is
// snapshot + log replay; the request whose commit carries a shard log
// past -wal-compact-bytes folds it into the shard snapshot before it
// answers. Without -data the store is in-memory. Ctrl-C / SIGTERM drain gracefully: the listener stops
// accepting, in-flight requests get -drain to finish, and the logs are
// folded into final snapshots before exit.
func runServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	dataDir := fs.String("data", "", "data directory for snapshots + WALs (empty = in-memory store)")
	tolerance := fs.Float64("tolerance", 0.10, "accepted Hamming-distance fraction")
	shards := fs.Int("shards", 16, "device store lock shards")
	walCompact := fs.Int64("wal-compact-bytes", 4<<20, "per-shard WAL size at which the request that reaches it folds the log into the shard snapshot (<0 disables)")
	fsyncMode := fs.String("fsync", "always", "durability flush policy: always (fsync every WAL append and snapshot) or off (page cache only)")
	maxInflight := fs.Int("max-inflight", 64, "max concurrently executing requests")
	maxQueue := fs.Int("max-queue", 256, "max requests queued for an inflight slot (excess get 429)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight requests")
	seed := fs.Uint64("seed", 0, "challenge RNG seed (0 = cryptographically random)")
	trace := fs.String("trace-out", *traceOut, "write span events as JSON lines to this file")
	level := fs.String("log-level", *logLevel, "structured JSON logs on stderr (debug, info, warn, error; empty = off)")
	sloObjective := fs.Float64("slo-objective", 0.99, "availability objective for /healthz (fraction of non-5xx/429 responses)")
	sloWindow := fs.Duration("slo-window", time.Minute, "rolling window the SLO burn rate is computed over")
	maxBurn := fs.Float64("max-burn-rate", 10, "error-budget burn rate at which /healthz reports degraded")
	auditOut := fs.String("audit-out", "", "append security audit events as JSON lines to this file (empty = off)")
	abuseWindow := fs.Duration("abuse-window", time.Minute, "rolling window for per-device telemetry and the abuse scorer")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *seed == 0 {
		var buf [8]byte
		if _, err := crand.Read(buf[:]); err != nil {
			return fmt.Errorf("serve: seeding challenge RNG: %w", err)
		}
		*seed = binary.LittleEndian.Uint64(buf[:])
	}

	fsyncPolicy, err := authserve.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		return err
	}
	logger, err := newLogger(*level)
	if err != nil {
		return err
	}
	registry := obs.NewRegistry()
	var tracer *obs.Tracer
	var traceFile *os.File
	if *trace != "" {
		traceFile, err = os.Create(*trace)
		if err != nil {
			return fmt.Errorf("serve: trace output: %w", err)
		}
		defer func() {
			_ = traceFile.Sync()
			_ = traceFile.Close()
		}()
		tracer = obs.NewTracer(obs.NewJSONLSink(traceFile), obs.WithService("authserve"))
	}
	var auditW *audit.Writer
	if *auditOut != "" {
		w, f, cut, err := audit.OpenFile(*auditOut)
		if err != nil {
			return fmt.Errorf("serve: audit output: %w", err)
		}
		if cut > 0 {
			fmt.Fprintf(os.Stderr, "audit: cut a torn last line of %d bytes from %s\n", cut, *auditOut)
		}
		auditW = w
		defer func() {
			// Drain the async writer before closing the file so the last
			// events of a graceful shutdown are on disk.
			err := auditW.Close()
			if cerr := f.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("audit: %w", cerr)
			}
			fmt.Fprintf(os.Stderr, "audit: %d events emitted, %d dropped\n",
				auditW.Emitted(), auditW.Dropped())
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	store, err := authserve.Open(authserve.StoreOptions{
		Tolerance:       *tolerance,
		Shards:          *shards,
		Dir:             *dataDir,
		Seed:            *seed,
		CompactBytes:    *walCompact,
		Fsync:           fsyncPolicy,
		Registry:        registry,
		Tracer:          tracer,
		TelemetryWindow: *abuseWindow,
	})
	if err != nil {
		return err
	}
	defer store.Close()
	opt := authserve.ServerOptions{
		MaxInflight:  *maxInflight,
		MaxQueue:     *maxQueue,
		DrainTimeout: *drain,
		Registry:     registry,
		Logger:       logger,
		SLO:          obs.SLO{Objective: *sloObjective, Window: *sloWindow},
		MaxBurnRate:  *maxBurn,
		Tracer:       tracer,
		Audit:        auditW,
	}
	srv := authserve.NewServer(store, opt)

	started := make(chan net.Addr, 1)
	go func() {
		if a, ok := <-started; ok {
			persist := "in-memory"
			if *dataDir != "" {
				persist = fmt.Sprintf("WAL+snapshots in %s, fsync %s", *dataDir, fsyncPolicy)
			}
			fmt.Fprintf(os.Stderr, "authserve listening on http://%s (%d devices, %s, tolerance %g)\n",
				a, store.NumDevices(), persist, *tolerance)
		}
	}()
	err = srv.ListenAndServe(ctx, *addr, started)
	if err == nil {
		fmt.Fprintln(os.Stderr, "authserve drained cleanly")
	}
	return err
}
