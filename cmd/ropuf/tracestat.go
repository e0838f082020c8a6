package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"ropuf/internal/tracestat"
)

// runTracestat analyzes span JSONL files written by -trace-out (from serve,
// loadgen, fleet, or experiment runs): it reconstructs trace trees across
// files, reports per-span-name latency percentiles, the critical path of
// the slowest trace, and data-quality counters (orphan spans, multi-root
// traces). Feeding it one file from each side of an RPC boundary shows how
// many traces stitched across processes; -require-stitched turns that
// fraction into an exit-code gate for CI.
func runTracestat(args []string) error {
	fs := flag.NewFlagSet("tracestat", flag.ContinueOnError)
	top := fs.Int("top", 20, "show at most N span names (0 = all)")
	requireStitched := fs.Float64("require-stitched", 0,
		"exit nonzero unless at least this fraction of traces span multiple services")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		return errors.New("tracestat: no input files (usage: ropuf tracestat [flags] <spans.jsonl>...)")
	}

	events, err := tracestat.ReadFiles(paths)
	if err != nil {
		return err // already "tracestat:"-prefixed by the package
	}
	if len(events) == 0 {
		return fmt.Errorf("tracestat: no spans found in %d file(s)", len(paths))
	}
	rep := tracestat.Analyze(events, tracestat.Options{Top: *top})
	rep.Files = len(paths)
	if err := rep.WriteText(os.Stdout); err != nil {
		return err
	}

	if *requireStitched > 0 && rep.StitchedFraction() < *requireStitched {
		return fmt.Errorf("tracestat: only %.1f%% of traces stitched across services (require %.1f%%)",
			100*rep.StitchedFraction(), 100**requireStitched)
	}
	return nil
}
