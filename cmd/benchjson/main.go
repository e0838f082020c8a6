// Command benchjson converts `go test -bench` output into a JSON perf
// record. It reads the benchmark output on stdin, echoes it through to
// stdout unchanged (so the human-readable numbers stay visible in CI
// logs), and writes the record to the -o file: a header naming the
// machine (goos, goarch, cpu, GOMAXPROCS and this toolchain's Go version)
// and, per benchmark, every sample of a -count run with the count,
// median, min and max of ns/op, B/op, allocs/op and each custom unit.
// `make bench` uses it to write every BENCH_*.json record of the repo
// (BENCH_fleet.json, BENCH_measure.json, BENCH_authserve.json), so each
// row comes from a Go benchmark.
//
// Usage:
//
//	go test -run xxx -bench 'BenchmarkFleet' -benchmem -count 5 . | benchjson -o BENCH_fleet.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"ropuf/internal/benchfmt"
)

func main() {
	out := flag.String("o", "BENCH_fleet.json", "write the JSON record to this file")
	flag.Parse()
	rec, err := benchfmt.Parse(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rec.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	// `make bench` runs benchjson with `go run`, so this is the toolchain
	// that built the benchmarks too.
	rec.Header.Go = runtime.Version()
	data, err := benchfmt.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(rec.Benchmarks), *out)
}
