#!/usr/bin/env bash
# Builds the ropuf server and the benchmark from this checkout into
# .bench_build/, then runs the benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload auth --seed 1 --seconds 20 --trace 0
# The Go build cache, GOPATH, the go command's config (telemetry counters)
# and temporary files stay inside .bench_build/ too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ropuf" || ! -f "$root/BENCHMARK.json" ]]; then
	echo "perfbench: $root is not a ropuf checkout (go.mod, cmd/ropuf or BENCHMARK.json missing)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root" && go build -o "$out/ropuf" ./cmd/ropuf)
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -server "$out/ropuf" "$@"
