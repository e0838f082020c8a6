package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ropuf/internal/auth"
	"ropuf/internal/authserve"
	"ropuf/internal/core"
	"ropuf/internal/dataset"
	"ropuf/internal/fleet"
	"ropuf/internal/measure"
	"ropuf/internal/rngx"
	"ropuf/internal/silicon"
)

// probePasses is how many times each timed call sequence runs; the
// reported figure is the median pass.
const probePasses = 3

// medianPass runs one timed pass probePasses times and returns the median
// of the durations the passes report.
func medianPass(pass func() (time.Duration, error)) (time.Duration, error) {
	var ds []time.Duration
	for p := 0; p < probePasses; p++ {
		d, err := pass()
		if err != nil {
			return 0, err
		}
		ds = append(ds, d)
	}
	return medianOf(ds), nil
}

// timePerCall times fn(0..n-1) in each pass and returns the median pass's
// mean time per call.
func timePerCall(n int, fn func(i int) error) (time.Duration, error) {
	d, err := medianPass(func() (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})
	return d / time.Duration(n), err
}

// probe times each layer's public functions, the way a caller uses them,
// on the workload's devices (core, auth, authserve store and recovery) and
// on its corpus configuration (silicon, measure, dataset). shardDevices is
// how many devices one shard snapshot of the workload holds, openDir a copy
// of the data dir the server recovered from ("" when the workload runs no
// server), and readyS that recovery's ready_s.
func (b *bench) probe(r *measured, devices []fleet.Device, shardDevices int, openDir string, readyS float64) error {
	if err := b.probeCoreAuth(r, devices, shardDevices); err != nil {
		return fmt.Errorf("probe core/auth: %w", err)
	}
	storeDir, err := b.probeStore(r, devices)
	if err != nil {
		return fmt.Errorf("probe store: %w", err)
	}
	if openDir == "" {
		openDir = storeDir
	}
	t0 := time.Now()
	s, err := authserve.Open(authserve.StoreOptions{Dir: openDir, Shards: 16, Seed: b.sub(2)})
	if err != nil {
		return fmt.Errorf("probe open: %w", err)
	}
	r.set("authserve.open_ms", ms(time.Since(t0)))
	if err := s.Close(); err != nil {
		return err
	}
	if readyS > 0 {
		r.set("proc.start_ms", 1000*readyS-r.m["authserve.open_ms"])
	}
	if err := b.probeCorpus(r); err != nil {
		return fmt.Errorf("probe corpus: %w", err)
	}
	return nil
}

func (b *bench) probeCoreAuth(r *measured, devices []fleet.Device, shardDevices int) error {
	n := len(devices)
	enr := make([]*core.Enrollment, n)
	d, err := timePerCall(n, func(i int) (err error) {
		enr[i], err = core.Enroll(devices[i].Pairs, core.Case2, 0, core.Options{})
		return err
	})
	if err != nil {
		return err
	}
	r.set("core.enroll_us", us(d))
	enc := make([][]byte, n)
	d, err = timePerCall(n, func(i int) (err error) {
		enc[i], err = enr[i].AppendBinary(enc[i][:0])
		return err
	})
	if err != nil {
		return err
	}
	r.set("core.append_binary_us", us(d))
	d, err = timePerCall(n, func(i int) error {
		_, err := core.LoadEnrollmentBinary(enc[i])
		return err
	})
	if err != nil {
		return err
	}
	r.set("core.load_binary_us", us(d))

	// ApplyEnroll is timed into a fresh verifier per pass.
	var v *auth.Verifier
	d, err = timePerCall(n, func(i int) (err error) {
		if i == 0 {
			if v, err = auth.NewVerifier(0.10, rngx.New(b.sub(8))); err != nil {
				return err
			}
		}
		return v.ApplyEnroll(devices[i].ID, enr[i])
	})
	if err != nil {
		return err
	}
	r.set("auth.apply_enroll_us", us(d))
	// One challenge per device per pass, answered honestly from a
	// re-measurement at the workload's noise; only Verify is timed.
	fresh := make([][]core.Pair, n)
	for i := range devices {
		fresh[i] = fleet.Remeasure(devices[i], authNoisePS, b.sub(3)+uint64(i))
	}
	d, err = medianPass(func() (time.Duration, error) {
		var total time.Duration
		for i := range devices {
			ch, err := v.NewChallenge(devices[i].ID, authK)
			if err != nil {
				return 0, err
			}
			resp, err := (&auth.Prover{Enrollment: enr[i]}).Respond(ch, fresh[i])
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			ok, _, err := v.Verify(ch, resp)
			total += time.Since(t0)
			if err != nil {
				return 0, err
			}
			if !ok {
				r.gate("probe: honest response of %s rejected", devices[i].ID)
			}
		}
		return total, nil
	})
	if err != nil {
		return err
	}
	r.set("auth.verify_us", us(d)/float64(n))

	// Snapshot save and load of one shard of the workload's size.
	perShard := min(max(shardDevices, 1), n)
	sv, err := auth.NewVerifier(0.10, rngx.New(b.sub(8)))
	if err != nil {
		return err
	}
	for i := 0; i < perShard; i++ {
		if err := sv.ApplyEnroll(devices[i].ID, enr[i]); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	d, err = timePerCall(1, func(int) error {
		buf.Reset()
		return sv.Save(&buf)
	})
	if err != nil {
		return err
	}
	r.set("auth.save_snapshot_ms", ms(d))
	d, err = timePerCall(1, func(int) error {
		_, err := auth.LoadVerifier(bytes.NewReader(buf.Bytes()), rngx.New(1))
		return err
	})
	if err != nil {
		return err
	}
	r.set("auth.load_snapshot_ms", ms(d))
	return nil
}

// probeStore times Store.Enroll, Challenge and Verify one call at a time,
// with fsync-always persistence and in memory; the difference is the WAL's
// share. It returns the persistent store's directory.
func (b *bench) probeStore(r *measured, devices []fleet.Device) (string, error) {
	dir := filepath.Join(b.work, "probe-store")
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	for _, persist := range []bool{true, false} {
		opt := authserve.StoreOptions{Shards: 16, Seed: b.sub(2)}
		suffix := "_mem_us"
		if persist {
			opt.Dir, suffix = dir, "_us"
		}
		s, err := authserve.Open(opt)
		if err != nil {
			return "", err
		}
		enroll, challenge, verify, err := timeStore(s, devices)
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return "", err
		}
		r.set("authserve.store.enroll"+suffix, us(enroll))
		r.set("authserve.store.challenge"+suffix, us(challenge))
		if persist {
			r.set("authserve.store.verify_us", us(verify))
		}
	}
	return dir, nil
}

// timeStore enrolls every device, then challenges and verifies each once,
// timing the mean store call of each kind.
func timeStore(s *authserve.Store, devices []fleet.Device) (enroll, challenge, verify time.Duration, err error) {
	n := len(devices)
	provers := make([]*auth.Prover, n)
	for i, dev := range devices {
		t0 := time.Now()
		if _, err := s.Enroll(dev.ID, dev.Pairs, core.Case2); err != nil {
			return 0, 0, 0, err
		}
		enroll += time.Since(t0)
		enr, err := core.Enroll(dev.Pairs, core.Case2, 0, core.Options{})
		if err != nil {
			return 0, 0, 0, err
		}
		provers[i] = &auth.Prover{Enrollment: enr}
	}
	for i, dev := range devices {
		t0 := time.Now()
		id, ch, _, err := s.Challenge(dev.ID, authK)
		challenge += time.Since(t0)
		if err != nil {
			return 0, 0, 0, err
		}
		resp, err := provers[i].Respond(ch, dev.Pairs)
		if err != nil {
			return 0, 0, 0, err
		}
		t0 = time.Now()
		ok, _, _, err := s.Verify(dev.ID, id, resp)
		verify += time.Since(t0)
		if err != nil {
			return 0, 0, 0, err
		}
		if !ok {
			return 0, 0, 0, fmt.Errorf("store rejected the noise-free response of %s", dev.ID)
		}
	}
	return enroll / time.Duration(n), challenge / time.Duration(n), verify / time.Duration(n), nil
}

// probeCorpus times the corpus pipeline's layers on a paper-sized corpus
// of the workload's configuration: die fabrication, board measurement on a
// fresh die (env table built) and on a warm one, serial and parallel
// streaming into a no-op sink, and the shard writer.
func (b *bench) probeCorpus(r *measured) error {
	cfg := b.corpusConfig()
	cfg.NumBoards, cfg.NumEnvBoards = 199, 5
	const dies = 64
	rng := rngx.New(cfg.Seed)
	bm := measure.NewBoardMeter(cfg.NoiseMHz)
	env := dataset.NominalCondition.Env()
	buf := make([]float64, cfg.GridW*cfg.GridH)
	var newDie, cold, warm [probePasses]time.Duration
	for p := 0; p < probePasses; p++ {
		for i := 0; i < dies; i++ {
			t0 := time.Now()
			die, err := silicon.NewDie(cfg.Process, cfg.GridW, cfg.GridH, rng.Split())
			if err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := bm.MeasureInto(buf, die, env, rng); err != nil {
				return err
			}
			t2 := time.Now()
			if _, err := bm.MeasureInto(buf, die, env, rng); err != nil {
				return err
			}
			newDie[p] += t1.Sub(t0)
			cold[p] += t2.Sub(t1)
			warm[p] += time.Since(t2)
		}
	}
	perDie := func(passes [probePasses]time.Duration) float64 {
		return us(medianOf(passes[:])) / dies
	}
	r.set("silicon.new_die_us", perDie(newDie))
	r.set("measure.measure_cold_us", perDie(cold))
	r.set("measure.measure_warm_us", perDie(warm))

	var boards []*dataset.Board
	serial, err := timePerCall(1, func(int) error {
		boards = boards[:0]
		return dataset.StreamVT(cfg, func(bd *dataset.Board) error {
			boards = append(boards, bd)
			return nil
		})
	})
	if err != nil {
		return err
	}
	perBoard := serial / time.Duration(cfg.NumBoards)
	r.set("dataset.stream_us", us(perBoard))
	conditions := 0
	for _, bd := range boards {
		conditions += len(bd.Freq)
	}
	measures := float64(conditions) / float64(len(boards))
	r.set("dataset.assembly_us", us(perBoard)-r.m["silicon.new_die_us"]-measures*r.m["measure.measure_cold_us"])
	parallel, err := timePerCall(1, func(int) error {
		return dataset.StreamVTParallel(context.Background(), cfg, b.conns, func(*dataset.Board) error { return nil })
	})
	if err != nil {
		return err
	}
	r.set("dataset.parallel_speedup", float64(serial)/float64(parallel))
	r.set("dataset.boards_per_s", float64(cfg.NumBoards)/parallel.Seconds())

	dir := filepath.Join(b.work, "probe-corpus")
	var closes []time.Duration
	write, err := medianPass(func() (time.Duration, error) {
		sw, err := dataset.NewShardWriter(dir, corpusShards, dataset.FormatBin)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for _, bd := range boards {
			if err := sw.WriteBoard(bd); err != nil {
				return 0, err
			}
		}
		d := time.Since(t0)
		t0 = time.Now()
		_, err = sw.Close()
		closes = append(closes, time.Since(t0))
		return d, err
	})
	if err != nil {
		return err
	}
	r.set("dataset.write_board_us", us(write)/float64(len(boards)))
	r.set("dataset.close_ms", ms(medianOf(closes)))
	return os.RemoveAll(dir)
}
