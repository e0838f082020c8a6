package main

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"time"

	"ropuf/internal/dataset"
	"ropuf/internal/fleet"
)

// The corpus workload: back-to-back builds of one paper-shaped corpus
// (512-RO boards, the paper's 5-in-199 share swept over V/T) streamed by
// dataset.StreamVTParallel with nproc workers into bin shards in one
// directory. Every board is a fresh die, so the per-die env-table cache
// always misses.
const (
	corpusBoards    = 995 // five times the paper's 199 boards
	corpusEnvBoards = 25  // five times the paper's 5 swept boards
	corpusShards    = 8
	corpusBuilds    = 5 // builds per second of --seconds: the fixed op count
)

func (b *bench) corpusConfig() dataset.VTConfig {
	cfg := dataset.DefaultVTConfig()
	cfg.NumBoards, cfg.NumEnvBoards, cfg.Seed = corpusBoards, corpusEnvBoards, b.sub(7)
	return cfg
}

// buildCorpus streams one corpus into dir and returns its manifest and the
// time ShardWriter.Close took to flush the shards and commit the manifest.
func buildCorpus(ctx context.Context, cfg dataset.VTConfig, workers int, dir string) (*dataset.Manifest, time.Duration, error) {
	sw, err := dataset.NewShardWriter(dir, corpusShards, dataset.FormatBin)
	if err != nil {
		return nil, 0, err
	}
	if err := dataset.StreamVTParallel(ctx, cfg, workers, sw.WriteBoard); err != nil {
		_, _ = sw.Close() // the stream error is the one to report
		return nil, 0, err
	}
	t0 := time.Now()
	man, err := sw.Close()
	return man, time.Since(t0), err
}

// sameCorpus compares two manifests shard by shard: rows, bytes and
// CRC32-C.
func sameCorpus(a, b *dataset.Manifest) bool {
	return a.Boards == b.Boards && a.Rows == b.Rows && reflect.DeepEqual(a.Files, b.Files)
}

// runtimeSample reads the corpus process's allocation and GC counters
// through runtime/metrics (no stop-the-world).
type runtimeSample struct {
	allocBytes, gcCycles, pauseCPUSeconds float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/pause:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes:      float64(s[0].Value.Uint64()),
		gcCycles:        float64(s[1].Value.Uint64()),
		pauseCPUSeconds: s[2].Value.Float64(),
	}
}

func (b *bench) corpus(ctx context.Context, traced bool) (*measured, error) {
	p := fullPlan // the traced run is this run plus the timed calls
	r := newMeasured()
	cfg := b.corpusConfig()
	var ref *dataset.Manifest
	_, _, err := repeatSetup(b, r, "corpus", p.setups, func(dir string) (struct{}, error) {
		var err error
		ref, _, err = buildCorpus(ctx, cfg, 1, dir)
		return struct{}{}, err
	})
	if err != nil {
		return nil, err
	}
	b.logf("corpus: %d boards (%d swept)", cfg.NumBoards, cfg.NumEnvBoards)

	builds := corpusBuilds * b.seconds
	dir := filepath.Join(b.work, "corpus")
	var lat, closes []time.Duration
	failedBuilds := 0
	before, err := readNow("self")
	if err != nil {
		return nil, err
	}
	rtBefore := readRuntime()
	start := time.Now()
	for i := 0; i < builds; i++ {
		t0 := time.Now()
		man, closeTime, err := buildCorpus(ctx, cfg, b.conns, dir)
		switch {
		case err != nil:
			failedBuilds++
			r.gate("build %d: %v", i, err)
		case !sameCorpus(man, ref):
			failedBuilds++
			r.gate("build %d: manifest differs from the serial reference", i)
		default:
			lat = append(lat, time.Since(t0))
			closes = append(closes, closeTime)
		}
	}
	wall := time.Since(start)
	rtAfter := readRuntime()
	after, err := readNow("self")
	if err != nil {
		return nil, err
	}
	boards := len(lat) * cfg.NumBoards
	r.attempted, r.failed = builds*cfg.NumBoards, failedBuilds*cfg.NumBoards
	sum := summarize(lat, failedBuilds)
	r.set("p50_ms", ms(sum.P50))
	r.set("tail_ms", ms(sum.Tail))
	r.set("ops_per_s", float64(boards)/wall.Seconds())
	r.set("drain_s", medianSeconds(closes))
	b.logf("corpus: %d builds (%d boards) in %v, per build %s", builds, boards, wall.Round(time.Millisecond), sum.describe())

	recordProc(r, before, after, boards)
	r.set("runtime.alloc_bytes_per_op", perOp(rtAfter.allocBytes-rtBefore.allocBytes, boards))
	r.set("runtime.gc_cycles_per_kop", 1000*perOp(rtAfter.gcCycles-rtBefore.gcCycles, boards))
	r.set("runtime.gc_pause_ms", 1000*(rtAfter.pauseCPUSeconds-rtBefore.pauseCPUSeconds)/float64(runtime.GOMAXPROCS(0)))

	var bytes int64
	for _, f := range ref.Files {
		bytes += f.Bytes
	}
	r.set("disk_bytes_per_item", float64(bytes)/float64(ref.Boards))

	// Read the final build back through the reader, verifying every CRC;
	// its time to usable corpus is the workload's ready_s.
	var reads []time.Duration
	for i := 0; i < p.readies; i++ {
		t0 := time.Now()
		rd, err := dataset.OpenShards(dir)
		if err == nil {
			n := 0
			err = rd.Boards(func(*dataset.Board) error { n++; return nil })
			if err == nil && (n != ref.Boards || !sameCorpus(rd.Manifest(), ref)) {
				err = fmt.Errorf("read back %d boards, want %d", n, ref.Boards)
			}
		}
		if err != nil {
			r.gate("corpus read-back: %v", err)
			break
		}
		reads = append(reads, time.Since(t0))
	}
	if len(reads) > 0 {
		r.set("ready_s", medianSeconds(reads))
	}

	if traced {
		devices, err := fleet.Synthetic(probeDevices, authPairs, authStages, b.sub(1))
		if err != nil {
			return nil, err
		}
		if err := b.probe(r, devices, probeDevices/16, "", 0); err != nil {
			return nil, err
		}
	}
	return r, nil
}
