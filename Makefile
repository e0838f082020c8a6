# Development targets. `make verify` is the PR gate: it vets the tree and
# race-checks every package, which is what keeps the concurrent fleet and
# experiment-runner code honest.

GO ?= go

.PHONY: all build test verify deadcode race-wal perfbench-test bench bench-authserve bench-all bench-smoke fleet-bench fuzz serve-smoke watch-smoke datasetgen-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# PR gate: formatting and static checks plus the full test suite under the
# race detector. Every tracked Go file must be gofmt-clean. govulncheck
# runs when installed (CI installs it; local trees without it skip with a
# note rather than failing).
verify:
	@unformatted="$$(gofmt -l $$(git ls-files '*.go'))"; \
	test -z "$$unformatted" || { echo "gofmt needed:"; echo "$$unformatted"; exit 1; }
	$(GO) vet ./...
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi
	$(GO) test -race ./...

# Production code is what the binaries link: build every main package of
# both modules with inlining off and fail on any function declared under
# internal/ (outside _test.go files) that no binary links, unless
# cmd/deadcode/allowlist.txt lists it with a reason. A stale allowlist
# entry (linked again, or no longer declared) fails too.
deadcode:
	$(GO) run ./cmd/deadcode

# Race stress on the WAL commit path: the group-commit, compaction, fold
# (snapshot and WAL read back into a new snapshot), fault injection and
# crash-recovery tests, ten times over under the race detector. Commits
# run in whichever waiter leads, so interleavings vary run to run; one
# -race pass in `verify` sees only a few of them.
race-wal:
	$(GO) test -race -count=10 -run 'GroupCommit|WAL|Compaction|Fold|OpenFailure|Kill9|FsyncOff|Rollback|Retry|Hammer' ./internal/authserve

# The benchmark (perfbench/, see BENCHMARK.json) is its own module, so the
# root `go test ./...` never reaches it; vet and test it against this
# tree's packages, which it imports.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test .

# Perf trajectory: run the fleet enrollment/evaluation benchmarks with
# -benchmem and record name -> ns/op, B/op, allocs/op in BENCH_fleet.json,
# then the measurement-engine benchmarks (incremental vs naive leave-one-out,
# env-factor cache, whole-ring evaluation, whole-board batch measurement,
# streaming corpus generation — the last two also report boards/s and
# bytes/board via B.ReportMetric, captured in the JSON's "extra" map) into
# BENCH_measure.json (cmd/benchjson echoes the raw output so CI logs keep
# the numbers).
bench:
	$(GO) test -run xxx -bench 'BenchmarkFleet(Enroll|Evaluate)' -benchmem -benchtime 3x . | $(GO) run ./cmd/benchjson -o BENCH_fleet.json
	$(GO) test -run xxx -bench 'BenchmarkDdiffs(Naive|Fast)|BenchmarkPairDdiffs|BenchmarkEnvFactor|BenchmarkHalfPeriod|BenchmarkBoardMeter|BenchmarkStreamVT' \
		-benchmem -benchtime 20x ./internal/measure ./internal/silicon ./internal/circuit ./internal/dataset \
		| $(GO) run ./cmd/benchjson -o BENCH_measure.json
	$(MAKE) bench-authserve

# Serving-path perf record: the store-level enroll benchmarks against a
# 1k-device store (BenchmarkStoreEnrollWAL vs the pre-WAL write-through model
# BenchmarkStoreEnrollSnapshot), the group-commit scaling curve
# (BenchmarkStoreEnrollWALParallel at clients=1/8/64 — enrolls/s must
# grow with concurrency; 4000x so each leg runs long enough for group
# commit to reach steady state) and the audit-on vs audit-off verify
# handler pair (BenchmarkServerVerifyAuditOn/Off — the steady-state
# audit overhead budget is <3%, allocs/op pins the ≤8 zero-alloc verify
# budget, and AuditOn fails outright if any event is dropped), and the
# binary enroll decode of a 128-pair × 13-stage body with a cold and a
# pooled float backing (B/op and allocs/op are its numbers).
# Everything lands in BENCH_authserve.json. End-to-end serving numbers
# (HTTP, admission, store, WAL) come from perfbench's auth workload.
bench-authserve:
	( $(GO) test -run xxx -bench 'BenchmarkStoreEnroll(WAL|Snapshot)$$' -benchtime 50x ./internal/authserve; \
	$(GO) test -run xxx -bench 'BenchmarkStoreEnrollWALParallel' -benchtime 4000x ./internal/authserve; \
	$(GO) test -run xxx -bench 'BenchmarkServerVerifyAudit' -benchtime 3000x -benchmem ./internal/authserve; \
	$(GO) test -run xxx -bench 'BenchmarkEnrollDecodeBinary' -benchtime 2000x -benchmem ./internal/authserve ) \
		| $(GO) run ./cmd/benchjson -o BENCH_authserve.json

# Every benchmark in the tree, one iteration each (smoke, not measurement).
bench-all:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# Race-checked single-iteration pass over every benchmark in the tree. This
# is a PR gate, not a measurement: it drives the benchmark-only code paths
# (cached env tables, worker pools) under the race detector.
bench-smoke:
	$(GO) test -race -run xxx -bench . -benchtime 1x ./...

# Serial-vs-parallel fleet enrollment comparison, with the bytes and
# allocations each path costs.
fleet-bench:
	$(GO) test -run xxx -bench 'BenchmarkFleetEnroll' -benchtime 10x -benchmem .

# Fuzz the verifier snapshot decoder, the WAL replay recovery runs, the
# binary enrollment codec (canonical bodies only, and the verifier's
# in-place walk against the full decoder), the shard-corpus decoders and
# the binary enroll decoder against hostile bytes, the verify/challenge
# request parser against encoding/json, the Case-2 stage order (sorting
# network and fallback) against a stable sort over arbitrary delays, and
# the silicon environment factor against its four-pow reference formula
# over arbitrary parameters (CI runs these for short bursts; crashes land
# under the packages' testdata/fuzz directories).
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run FuzzLoadVerifier -fuzz FuzzLoadVerifier -fuzztime $(FUZZTIME) ./internal/auth
	$(GO) test -run FuzzReplayLog -fuzz FuzzReplayLog -fuzztime $(FUZZTIME) ./internal/auth
	$(GO) test -run FuzzEnrollmentBinary -fuzz FuzzEnrollmentBinary -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run FuzzAscIdx -fuzz FuzzAscIdx -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run FuzzShardBin -fuzz FuzzShardBin -fuzztime $(FUZZTIME) ./internal/dataset
	$(GO) test -run FuzzManifest -fuzz FuzzManifest -fuzztime $(FUZZTIME) ./internal/dataset
	$(GO) test -run FuzzJSONRequests -fuzz FuzzJSONRequests -fuzztime $(FUZZTIME) ./internal/authserve
	$(GO) test -run FuzzEnrollBinary -fuzz FuzzEnrollBinary -fuzztime $(FUZZTIME) ./internal/authserve
	$(GO) test -run FuzzEnvFactor -fuzz FuzzEnvFactor -fuzztime $(FUZZTIME) ./internal/silicon

# End-to-end smoke of the streaming dataset generator at paper scale
# (199 boards x 512 ROs, 5 env boards under the 9-condition V/T sweep =
# 122368 rows): generate the single-file CSV and check its row count,
# then build the 8-shard binary corpus twice, with 1 and with 4 workers,
# and require the two directories byte-identical (two independent
# generations, so any nondeterminism shows), then re-read the corpus with
# -check, which re-verifies every manifest count and CRC32-C.
datasetgen-smoke:
	$(GO) build -o /tmp/ropuf-dsgen ./cmd/datasetgen
	rm -rf /tmp/ropuf-dsgen-data && mkdir -p /tmp/ropuf-dsgen-data
	/tmp/ropuf-dsgen -workers 4 -out /tmp/ropuf-dsgen-data/vt.csv \
		| grep -q 'wrote 199 boards (122368 rows)' || { echo "single CSV row count wrong"; exit 1; }
	/tmp/ropuf-dsgen -workers 1 -shards 8 -out /tmp/ropuf-dsgen-data/bin8-w1 \
		| grep -q 'wrote 199 boards (122368 rows' || { echo "serial corpus row count wrong"; exit 1; }
	/tmp/ropuf-dsgen -workers 4 -shards 8 -out /tmp/ropuf-dsgen-data/bin8-w4 \
		| grep -q 'wrote 199 boards (122368 rows' || { echo "parallel corpus row count wrong"; exit 1; }
	diff -r /tmp/ropuf-dsgen-data/bin8-w1 /tmp/ropuf-dsgen-data/bin8-w4 \
		|| { echo "parallel corpus diverges from the serial one"; exit 1; }
	/tmp/ropuf-dsgen -check /tmp/ropuf-dsgen-data/bin8-w4 \
		| grep -q 'verified 199 boards (122368 rows' || { echo "binary corpus failed verification"; exit 1; }

# End-to-end smoke of the authentication service: boot `ropuf serve` on an
# ephemeral port with a persistent store, drive it with `ropuf loadgen`,
# then SIGINT the server and require a clean drain. A second leg proves
# crash durability end to end: restart on the same data dir, issue a
# challenge, kill -9 the process, restart again, and require the enrolled
# fleet to replay from snapshot + WAL while the pre-crash nonce answers
# 404 (outstanding challenges are deliberately memory-only). Both
# processes write span JSONL files; `ropuf tracestat` must stitch the
# client and server spans into shared traces (>=99% of traces cross the
# process boundary) and its report lands in TRACESTAT.txt for the CI
# artifact. A final harvest leg plays the adversary: `loadgen -harvest`
# hammers one device's challenge endpoint until the abuse scorer flags
# it, asserts GET /v1/audit/flagged lists the device and /healthz
# degrades with device_abuse, then merges the audit JSONL with both
# span files via `ropuf audit` (>=99% of traced audit events must match
# an observed trace) into AUDITSTAT.txt for the CI artifact. The last
# leg proves group commit engages under real concurrent HTTP load (not
# just in-process benchmarks): 64 loadgen workers enroll 256 devices
# into a fresh single-shard fsync-always store (one shard log, so the
# whole client pool contends on it — the same isolation argument as
# BenchmarkStoreEnrollWALParallel), and the server's
# ropuf_authserve_wal_group_commit_records histogram must show fewer
# than half of its commits carrying a single record (p50 > 1) — if
# batching never engaged, every commit lands in the le="1" bucket and
# the awk gate fails the build. A fold leg runs a single-shard server
# whose WAL folds into its snapshot at every 4 KiB, so loadgen's enrolls
# and challenges drive several folds, each reading the bodies back from
# the old snapshot and the WAL while other requests wait on the shard; it
# requires at least 3 folds and a healthy /healthz, then kill -9s the
# server and requires all 32 devices back after a restart. Four loadgen
# workers put at most four ~1.7 KB enroll records in a group commit, so
# a fold follows every batch or two (8 folds in local runs); at loadgen's
# default 32 one batch can carry most of the fleet, and 3 or 4 ran.
serve-smoke:
	$(GO) build -o /tmp/ropuf-smoke ./cmd/ropuf
	rm -rf /tmp/ropuf-smoke-data && mkdir -p /tmp/ropuf-smoke-data
	/tmp/ropuf-smoke serve -addr 127.0.0.1:18080 -data /tmp/ropuf-smoke-data \
		-audit-out /tmp/ropuf-smoke-data/audit.jsonl \
		-trace-out /tmp/ropuf-smoke-data/authserve.jsonl -log-level info & \
	SRV=$$!; sleep 1; \
	/tmp/ropuf-smoke loadgen -addr http://127.0.0.1:18080 -devices 32 -rounds 2 \
		-trace-out /tmp/ropuf-smoke-data/loadgen.jsonl || { kill $$SRV; exit 1; }; \
	curl -sf http://127.0.0.1:18080/metrics | grep -q 'ropuf_authserve_request_duration_seconds_count{route="verify",code="200"}' \
		|| { echo "missing verify latency metric"; kill $$SRV; exit 1; }; \
	curl -sf http://127.0.0.1:18080/metrics | grep -q '^ropuf_audit_dropped_total 0' \
		|| { echo "audit events were dropped under normal load"; kill $$SRV; exit 1; }; \
	curl -sf http://127.0.0.1:18080/healthz | grep -q '"status":"ok"' \
		|| { echo "healthz not ok under normal load"; kill $$SRV; exit 1; }; \
	kill -INT $$SRV; wait $$SRV
	/tmp/ropuf-smoke serve -addr 127.0.0.1:18080 -data /tmp/ropuf-smoke-data & \
	SRV=$$!; sleep 1; \
	NONCE=$$(curl -sf -X POST -d '{"id":"dev-0000","k":4}' http://127.0.0.1:18080/v1/challenge \
		| sed -n 's/.*"challenge_id": *"\([^"]*\)".*/\1/p'); \
	[ -n "$$NONCE" ] || { echo "restarted server issued no challenge"; kill $$SRV; exit 1; }; \
	kill -9 $$SRV; wait $$SRV 2>/dev/null || true; \
	/tmp/ropuf-smoke serve -addr 127.0.0.1:18080 -data /tmp/ropuf-smoke-data & \
	SRV=$$!; sleep 1; \
	curl -sf http://127.0.0.1:18080/v1/devices/dev-0000 >/dev/null \
		|| { echo "enrolled device lost across kill -9 restart"; kill $$SRV; exit 1; }; \
	CODE=$$(curl -s -o /dev/null -w '%{http_code}' -X POST \
		-d "{\"id\":\"dev-0000\",\"challenge_id\":\"$$NONCE\",\"response\":\"0000\"}" \
		http://127.0.0.1:18080/v1/verify); \
	[ "$$CODE" = 404 ] || { echo "pre-crash nonce answered $$CODE, want 404"; kill $$SRV; exit 1; }; \
	kill -INT $$SRV; wait $$SRV
	/tmp/ropuf-smoke tracestat -require-stitched 0.99 \
		/tmp/ropuf-smoke-data/loadgen.jsonl /tmp/ropuf-smoke-data/authserve.jsonl \
		| tee TRACESTAT.txt
	rm -rf /tmp/ropuf-harvest-data && mkdir -p /tmp/ropuf-harvest-data
	/tmp/ropuf-smoke serve -addr 127.0.0.1:18082 -data /tmp/ropuf-harvest-data \
		-audit-out /tmp/ropuf-harvest-data/audit.jsonl \
		-trace-out /tmp/ropuf-harvest-data/authserve.jsonl & \
	SRV=$$!; sleep 1; \
	/tmp/ropuf-smoke loadgen -addr http://127.0.0.1:18082 -devices 4 -harvest \
		-trace-out /tmp/ropuf-harvest-data/loadgen.jsonl \
		|| { echo "harvester was not flagged"; kill $$SRV; exit 1; }; \
	curl -sf http://127.0.0.1:18082/v1/audit/flagged | grep -q '"dev-0000"' \
		|| { echo "/v1/audit/flagged does not list the harvester"; kill $$SRV; exit 1; }; \
	curl -s http://127.0.0.1:18082/healthz | grep -q 'device_abuse' \
		|| { echo "healthz does not report device_abuse"; kill $$SRV; exit 1; }; \
	kill -INT $$SRV; wait $$SRV
	/tmp/ropuf-smoke audit -require-matched 0.99 \
		-spans /tmp/ropuf-harvest-data/loadgen.jsonl,/tmp/ropuf-harvest-data/authserve.jsonl \
		/tmp/ropuf-harvest-data/audit.jsonl \
		| tee AUDITSTAT.txt
	rm -rf /tmp/ropuf-group-data && mkdir -p /tmp/ropuf-group-data
	/tmp/ropuf-smoke serve -addr 127.0.0.1:18087 -data /tmp/ropuf-group-data -shards 1 & \
	SRV=$$!; sleep 1; \
	/tmp/ropuf-smoke loadgen -addr http://127.0.0.1:18087 -mode enroll \
		-devices 256 -pairs 8 -concurrency 64 \
		|| { echo "enroll-mode loadgen failed"; kill $$SRV; exit 1; }; \
	curl -sf http://127.0.0.1:18087/metrics | awk ' \
		/^ropuf_authserve_wal_group_commit_records_bucket\{le="1"\}/ { le1 = $$2 } \
		/^ropuf_authserve_wal_group_commit_records_count/ { count = $$2 } \
		END { \
			if (count + 0 == 0) { print "no WAL group commits recorded"; exit 1 } \
			if (le1 * 2 >= count) { \
				printf "group commit not engaging: %d of %d commits were single-record\n", le1, count; exit 1 } \
			printf "group commit engaged: %d commits, %d single-record\n", count, le1 }' \
		|| { kill $$SRV; exit 1; }; \
	kill -INT $$SRV; wait $$SRV
	rm -rf /tmp/ropuf-fold-data && mkdir -p /tmp/ropuf-fold-data
	/tmp/ropuf-smoke serve -addr 127.0.0.1:18088 -data /tmp/ropuf-fold-data -shards 1 -wal-compact-bytes 4096 & \
	SRV=$$!; sleep 1; \
	/tmp/ropuf-smoke loadgen -addr http://127.0.0.1:18088 -devices 32 -rounds 2 -concurrency 4 \
		|| { echo "loadgen against the folding server failed"; kill $$SRV; exit 1; }; \
	curl -sf http://127.0.0.1:18088/metrics | awk ' \
		/^ropuf_authserve_wal_compactions_total / { folds = $$2 } \
		END { \
			if (folds + 0 < 3) { printf "%d WAL folds ran, want at least 3\n", folds; exit 1 } \
			printf "%d WAL folds ran\n", folds }' \
		|| { kill $$SRV; exit 1; }; \
	curl -sf http://127.0.0.1:18088/healthz | grep -q '"status":"ok"' \
		|| { echo "healthz not ok after the folds"; kill $$SRV; exit 1; }; \
	kill -9 $$SRV; wait $$SRV 2>/dev/null || true; \
	/tmp/ropuf-smoke serve -addr 127.0.0.1:18088 -data /tmp/ropuf-fold-data -shards 1 -wal-compact-bytes 4096 & \
	SRV=$$!; sleep 1; \
	for i in $$(seq 0 31); do \
		curl -sf http://127.0.0.1:18088/v1/devices/$$(printf 'dev-%04d' $$i) >/dev/null \
			|| { echo "device $$i lost across kill -9 after the folds"; kill $$SRV; exit 1; }; \
	done; \
	curl -sf http://127.0.0.1:18088/metrics | grep -q '^ropuf_authserve_shard_devices{shard="0000"} 32$$' \
		|| { echo "restarted fold server does not hold exactly 32 devices"; kill $$SRV; exit 1; }; \
	kill -INT $$SRV; wait $$SRV
	$(MAKE) watch-smoke

# Fleet observability leg: `ropuf watch` polls two live serve instances plus
# the load generator's own -metrics-addr endpoint while loadgen drives one
# server, gating on zero anomaly firings and a >=99% scrape success ratio
# (WATCHSTAT.txt is the CI artifact). The loadgen workload is sized so its
# challenge-preparation phase alone outlasts the watch window — its metrics
# endpoint must not vanish mid-watch. A second, negative pass SIGSTOPs an
# idle server mid-watch and requires watch to exit non-zero via the
# flatline + scrape_failure rules: the detector itself is under test, not
# just the happy path.
watch-smoke:
	$(GO) build -o /tmp/ropuf-smoke ./cmd/ropuf
	rm -rf /tmp/ropuf-watch-a /tmp/ropuf-watch-b /tmp/ropuf-watch-c
	mkdir -p /tmp/ropuf-watch-a /tmp/ropuf-watch-b /tmp/ropuf-watch-c
	printf '%s' '[{"type":"scrape_failure","window":"4s"},{"type":"burn_rate","series":"ropuf_authserve_requests_total{route=\"verify\"}","error_codes":"^5..$$","window":"4s"},{"type":"p99_ceiling","series":"ropuf_authserve_request_duration_seconds","max_seconds":1,"window":"4s"}]' \
		> /tmp/ropuf-watch-a/rules.json
	/tmp/ropuf-smoke serve -addr 127.0.0.1:18083 -data /tmp/ropuf-watch-a & \
	SRVA=$$!; \
	/tmp/ropuf-smoke serve -addr 127.0.0.1:18085 -data /tmp/ropuf-watch-b & \
	SRVB=$$!; sleep 1; \
	/tmp/ropuf-smoke loadgen -addr http://127.0.0.1:18083 -devices 256 -pairs 2048 -k 8 \
		-metrics-addr 127.0.0.1:18084 > /tmp/ropuf-watch-a/loadgen.log 2>&1 & \
	LG=$$!; sleep 1; \
	if ! /tmp/ropuf-smoke watch -interval 500ms -duration 8s -report-every 4s \
		-rules /tmp/ropuf-watch-a/rules.json -min-success 0.99 \
		-rate-series 'ropuf_authserve_requests_total{route="verify"}' \
		-latency-series ropuf_authserve_request_duration_seconds \
		-out /tmp/ropuf-watch-a/watch.jsonl \
		http://127.0.0.1:18083 http://127.0.0.1:18085 http://127.0.0.1:18084 \
		> WATCHSTAT.txt 2>&1; then \
		cat WATCHSTAT.txt; cat /tmp/ropuf-watch-a/loadgen.log; \
		echo "watch reported anomalies on a healthy fleet"; \
		kill $$SRVA $$SRVB $$LG 2>/dev/null; exit 1; fi; \
	cat WATCHSTAT.txt; \
	kill -INT $$LG 2>/dev/null; wait $$LG 2>/dev/null || true; \
	kill -INT $$SRVB $$SRVA; wait $$SRVB $$SRVA
	printf '%s' '[{"type":"flatline","series":"ropuf_authserve_requests_total","window":"2s"},{"type":"scrape_failure","window":"2s"}]' \
		> /tmp/ropuf-watch-c/stall-rules.json
	/tmp/ropuf-smoke serve -addr 127.0.0.1:18086 -data /tmp/ropuf-watch-c & \
	SRV=$$!; sleep 1; \
	( sleep 2; kill -STOP $$SRV ) & \
	if /tmp/ropuf-smoke watch -interval 250ms -timeout 500ms -duration 6s -report-every 0 \
		-rules /tmp/ropuf-watch-c/stall-rules.json http://127.0.0.1:18086 \
		> /tmp/ropuf-watch-c/stall.log 2>&1; then \
		cat /tmp/ropuf-watch-c/stall.log; \
		echo "watch exited zero against a SIGSTOPped server"; \
		kill -CONT $$SRV 2>/dev/null; kill $$SRV 2>/dev/null; exit 1; fi; \
	grep -q 'ANOMALY' /tmp/ropuf-watch-c/stall.log \
		|| { echo "watch failed without an ANOMALY line"; kill -CONT $$SRV 2>/dev/null; kill $$SRV 2>/dev/null; exit 1; }; \
	echo "stalled-server watch exited non-zero, as it must:"; \
	grep 'ANOMALY' /tmp/ropuf-watch-c/stall.log; \
	kill -CONT $$SRV 2>/dev/null; kill -INT $$SRV; wait $$SRV
