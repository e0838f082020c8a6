// Command datasetgen writes the synthetic Virginia-Tech-style RO dataset,
// either as a single CSV file or as a sharded binary corpus directory with
// a checksummed manifest (see internal/dataset). Generation streams board by
// board, so memory stays constant in the corpus size; -workers fans board
// fabrication out over a pool without changing a single output bit.
//
// Usage:
//
//	datasetgen [-seed N] [-boards N] [-env-boards N] [-workers N] [-out file.csv]
//	datasetgen -shards S -out corpus-dir/
//	datasetgen -check corpus-dir/
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"ropuf/internal/dataset"
	"ropuf/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "datasetgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("datasetgen", flag.ContinueOnError)
	fs.SetOutput(stdout)
	seed := fs.Uint64("seed", 0, "override dataset seed (0 keeps the default)")
	boards := fs.Int("boards", 0, "override board count (0 keeps the default 199)")
	envBoards := fs.Int("env-boards", -1, "override environment-swept board count (-1 keeps the default 5)")
	out := fs.String("out", "vt_dataset.csv", "output CSV path ('-' for stdout), or corpus directory with -shards")
	shards := fs.Int("shards", 0, "split output into this many binary shard files under -out (0 writes a single CSV)")
	workers := fs.Int("workers", 1, "parallel board-fabrication workers (output is bit-identical at any count)")
	check := fs.String("check", "", "verify an existing sharded corpus directory instead of generating")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics progress counters on this address while generating")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	if *check != "" {
		return runCheck(*check, stdout)
	}

	cfg := dataset.DefaultVTConfig()
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *boards < 0 {
		return fmt.Errorf("-boards must be positive, got %d", *boards)
	}
	if *boards > 0 {
		cfg.NumBoards = *boards
	}
	switch {
	case *envBoards < -1:
		return fmt.Errorf("-env-boards must be >= 0 (or -1 for the default), got %d", *envBoards)
	case *envBoards >= 0:
		cfg.NumEnvBoards = *envBoards
	}
	if cfg.NumEnvBoards > cfg.NumBoards {
		return fmt.Errorf("%d environment boards do not fit in %d boards; pass -env-boards %d or fewer",
			cfg.NumEnvBoards, cfg.NumBoards, cfg.NumBoards)
	}
	if *shards < 0 {
		return fmt.Errorf("-shards must be non-negative, got %d", *shards)
	}

	reg, boardsTotal, rowsTotal := newMetricsRegistry()
	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "metrics on http://%s/metrics\n", srv.Addr())
	}

	if *shards > 0 {
		return generateSharded(cfg, *workers, *out, *shards, stdout, boardsTotal, rowsTotal)
	}
	return generateCSV(cfg, *workers, *out, stdout, boardsTotal, rowsTotal)
}

// newMetricsRegistry builds the generator's observability registry: the
// progress counters plus the ropuf_runtime_* series, so a scrape of a
// long-running generation shows memory and GC behavior alongside
// throughput.
func newMetricsRegistry() (reg *obs.Registry, boardsTotal, rowsTotal *obs.Counter) {
	reg = obs.NewRegistry()
	boardsTotal = reg.NewCounter("ropuf_datasetgen_boards_total", "Boards generated so far.")
	rowsTotal = reg.NewCounter("ropuf_datasetgen_rows_total", "Measurement rows generated so far.")
	obs.RegisterRuntimeMetrics(reg)
	return reg, boardsTotal, rowsTotal
}

// rowsOf counts a board's measurement rows (ROs × conditions).
func rowsOf(b *dataset.Board) int64 {
	var rows int64
	for _, f := range b.Freq {
		rows += int64(len(f))
	}
	return rows
}

func generateCSV(cfg dataset.VTConfig, workers int, out string, stdout io.Writer, boardsTotal, rowsTotal *obs.Counter) error {
	w := stdout
	var file *os.File
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		file = f
		w = f
	}
	cw, err := dataset.NewCSVWriter(w)
	if err != nil {
		return err
	}
	err = dataset.StreamVTParallel(context.Background(), cfg, workers, func(b *dataset.Board) error {
		if err := cw.WriteBoard(b); err != nil {
			return err
		}
		boardsTotal.Inc()
		rowsTotal.Add(rowsOf(b))
		return nil
	})
	if err == nil {
		err = cw.Flush()
	}
	if file != nil {
		if cerr := file.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if out != "-" {
		fmt.Fprintf(stdout, "wrote %d boards (%d rows) to %s\n", boardsTotal.Value(), cw.Rows(), out)
	}
	return nil
}

func generateSharded(cfg dataset.VTConfig, workers int, dir string, shards int, stdout io.Writer, boardsTotal, rowsTotal *obs.Counter) error {
	sw, err := dataset.NewShardWriter(dir, shards, dataset.FormatBin)
	if err != nil {
		return err
	}
	err = dataset.StreamVTParallel(context.Background(), cfg, workers, func(b *dataset.Board) error {
		if err := sw.WriteBoard(b); err != nil {
			return err
		}
		boardsTotal.Inc()
		rowsTotal.Add(rowsOf(b))
		return nil
	})
	if err != nil {
		return err
	}
	man, err := sw.Close()
	if err != nil {
		return err
	}
	var bytes int64
	for _, fi := range man.Files {
		bytes += fi.Bytes
	}
	fmt.Fprintf(stdout, "wrote %d boards (%d rows, %d bytes) to %s in %d %s shards\n",
		man.Boards, man.Rows, bytes, dir, man.Shards, man.Format)
	return nil
}

// runCheck re-reads a sharded corpus end to end — manifest, per-shard CRCs,
// board structure — and prints what was verified.
func runCheck(dir string, stdout io.Writer) error {
	r, err := dataset.OpenShards(dir)
	if err != nil {
		return err
	}
	var boards int
	var rows int64
	err = r.Boards(func(b *dataset.Board) error {
		boards++
		rows += rowsOf(b)
		return nil
	})
	if err != nil {
		return err
	}
	man := r.Manifest()
	var bytes int64
	for _, fi := range man.Files {
		bytes += fi.Bytes
	}
	fmt.Fprintf(stdout, "verified %d boards (%d rows, %d bytes) in %d %s shards at %s\n",
		boards, rows, bytes, man.Shards, man.Format, dir)
	return nil
}
