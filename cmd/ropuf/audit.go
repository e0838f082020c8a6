package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"ropuf/internal/obs/audit"
	"ropuf/internal/tracestat"
)

// runAudit analyzes security audit JSONL files written by `serve -audit-out`:
// per-device CRP consumption, top consumers, exhaustion forecasts, and every
// flag episode with its evidence window. With -spans pointing at the span
// JSONL files from the same run (server and/or loadgen -trace-out), each
// audit event's trace_id is matched against the observed traces, proving the
// audit stream and the request traces describe the same requests;
// -require-matched turns that fraction into an exit-code gate for CI.
func runAudit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ContinueOnError)
	top := fs.Int("top", 10, "show at most N top consumers (0 = all)")
	spans := fs.String("spans", "", "comma-separated span JSONL files to correlate trace IDs against")
	requireMatched := fs.Float64("require-matched", 0,
		"exit nonzero unless at least this fraction of traced audit events match an observed span trace")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		return errors.New("audit: no input files (usage: ropuf audit [flags] <audit.jsonl>...)")
	}

	events, err := audit.ReadFiles(paths)
	if err != nil {
		return err // already "audit:"-prefixed by the package
	}
	if len(events) == 0 {
		return fmt.Errorf("audit: no events found in %d file(s)", len(paths))
	}
	var spanPaths []string
	for _, p := range strings.Split(*spans, ",") {
		if p = strings.TrimSpace(p); p != "" {
			spanPaths = append(spanPaths, p)
		}
	}
	spanEvs, err := tracestat.ReadFiles(spanPaths)
	if err != nil {
		return err
	}

	rep := audit.Analyze(events, spanEvs, audit.Options{Top: *top})
	rep.Files = len(paths) + len(spanPaths)
	if err := rep.WriteText(os.Stdout); err != nil {
		return err
	}

	if *requireMatched > 0 && rep.TraceMatchedFraction() < *requireMatched {
		return fmt.Errorf("audit: only %.1f%% of traced audit events matched a span trace (require %.1f%%)",
			100*rep.TraceMatchedFraction(), 100**requireMatched)
	}
	return nil
}
