package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ropuf/internal/auth"
	"ropuf/internal/authserve"
	"ropuf/internal/core"
	"ropuf/internal/fleet"
	"ropuf/internal/obs"
)

// The auth workload: an open loop of single-use CRP authentications at a
// fixed offered rate. On a 2-vCPU host the seed's closed-loop capacity
// over two connections is 1,400-2,000 authentications/s, so 300/s leaves
// the server idle most of the time: at 600/s, runs with 30% hypervisor
// steal queued and doubled their p50, while at 300/s latency tracks
// service time. Devices have loadgen's shape.
const (
	authRate      = 300 // authentications per second offered
	authK         = 16  // challenge length in bits
	authPairs     = 128
	authStages    = 13
	authNoisePS   = 2.0 // σ of the prover's re-measurement
	authPerDevice = 3   // round-robin visits per device; 8 would exhaust its 128 pairs
)

// authFixture is the auth workload's set-up: a WAL-only data dir holding
// the enrolled fleet, and the client's honest provers.
type authFixture struct {
	ids     []string
	provers []*auth.Prover
	fresh   [][]core.Pair  // each device's re-measurement at authNoisePS
	bodies  [][]byte       // each device's challenge request
	probe   []fleet.Device // the first devices, kept for the layer probes
}

// authSetup fabricates the fleet, enrolls it in-process through
// authserve.Open and Store.Enroll into dir (closing without SaveAll, so the
// dir is WAL-only, as a crash leaves it), and prepares every prover.
func (b *bench) authSetup(dir string, n int) (*authFixture, error) {
	devices, err := fleet.Synthetic(n, authPairs, authStages, b.sub(1))
	if err != nil {
		return nil, err
	}
	store, err := authserve.Open(authserve.StoreOptions{Dir: dir, Shards: 16, Seed: b.sub(2)})
	if err != nil {
		return nil, err
	}
	err = forEach(n, b.conns, func(i int) error {
		_, err := store.Enroll(devices[i].ID, devices[i].Pairs, core.Case2)
		return err
	})
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("auth set-up enroll: %w", err)
	}
	fx := &authFixture{
		ids:     make([]string, n),
		probe:   keepProbe(devices),
		provers: make([]*auth.Prover, n),
		fresh:   make([][]core.Pair, n),
		bodies:  make([][]byte, n),
	}
	noiseSeed := b.sub(3)
	err = forEach(n, b.conns, func(i int) error {
		enr, err := core.Enroll(devices[i].Pairs, core.Case2, 0, core.Options{})
		if err != nil {
			return err
		}
		fx.ids[i] = devices[i].ID
		fx.provers[i] = &auth.Prover{Enrollment: enr}
		fx.fresh[i] = fleet.Remeasure(devices[i], authNoisePS, noiseSeed+uint64(i))
		fx.bodies[i], err = json.Marshal(authserve.ChallengeRequest{ID: devices[i].ID, K: authK})
		return err
	})
	return fx, err
}

func (b *bench) authRun(ctx context.Context, name string, p plan, traced bool) (*measured, error) {
	r := newMeasured()
	ops := authRate * b.seconds
	n := (ops + authPerDevice - 1) / authPerDevice
	fx, dir, err := repeatSetup(b, r, name, p.setups, func(dir string) (*authFixture, error) {
		return b.authSetup(dir, n)
	})
	if err != nil {
		return nil, err
	}
	b.logf("%s: %d devices", name, n)

	var probeDir string
	if traced {
		// The recovery probe opens a copy of the same WAL-only dir the
		// server replays below.
		probeDir = filepath.Join(b.work, name+"-open")
		if err := copyDir(dir, probeDir); err != nil {
			return nil, err
		}
	}
	o := serverOptions{Bin: b.bin, DataDir: dir, Seed: b.sub(4)}
	if traced {
		o.TraceOut = filepath.Join(b.work, name+"-server.jsonl")
	}
	srv, readies, err := readyCycles(ctx, o, p.readies, n)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	r.set("ready_s", medianSeconds(readies))
	b.logf("%s: ready %v", name, readies)

	var sink *obs.RingSink
	var tracer *obs.Tracer // nil: untraced
	if traced {
		sink, tracer = ringSink(2*ops + 16)
	}
	c := newClient(srv.Addr, b.conns, tracer)
	defer c.close()
	challenged := make([]bool, ops)
	op := func(i int) error {
		d := i % n
		id := fx.ids[d]
		var ch authserve.ChallengeResponse
		if err := c.do(ctx, "challenge", http.MethodPost, "/v1/challenge", "application/json", fx.bodies[d], &ch); err != nil {
			return err
		}
		challenged[i] = true
		if ch.ID != id || len(ch.Pairs) != authK {
			return fmt.Errorf("challenge %s: got device %q with %d pairs", id, ch.ID, len(ch.Pairs))
		}
		resp, err := fx.provers[d].Respond(&auth.Challenge{DeviceID: id, Pairs: ch.Pairs}, fx.fresh[d])
		if err != nil {
			return err
		}
		var vr authserve.VerifyResponse
		req := authserve.VerifyRequest{ID: id, ChallengeID: ch.ChallengeID, Response: resp.String()}
		if err := c.postJSON(ctx, "verify", "/v1/verify", req, &vr); err != nil {
			return err
		}
		if !vr.OK || vr.Bits != authK {
			return fmt.Errorf("verify %s: honest response got ok=%v bits=%d distance=%d limit=%d",
				id, vr.OK, vr.Bits, vr.Distance, vr.Limit)
		}
		return nil
	}

	before, err := readServer(ctx, srv, c)
	if err != nil {
		return nil, err
	}
	loop := openLoop(ctx, ops, time.Second/authRate, b.conns, op)
	after, err := readServer(ctx, srv, c)
	if err != nil {
		return nil, err
	}
	done := len(loop.Lat)
	r.attempted, r.failed = ops, loop.Failed
	for _, e := range loop.Errs {
		r.gate("auth op failed: %v", e)
	}
	sum := summarize(loop.Lat, loop.Failed)
	r.set("p50_ms", ms(sum.P50))
	r.set("tail_ms", ms(sum.Tail))
	r.set("ops_per_s", float64(done)/loop.Wall.Seconds())
	r.set("client.late_p99_ms", ms(summarize(loop.Late, 0).Tail))
	recordServer(r, before, after, done)
	b.logf("%s: %d/%d ops in %v, %s", name, done, ops, loop.Wall.Round(time.Millisecond), sum.describe())

	// Sampled device state: each visit consumed authK fresh pairs. The
	// checker is untraced so its requests stay out of the span join, and
	// replaces the load connections rather than adding to them.
	c.close()
	checker := newClient(srv.Addr, 1, nil)
	consumed := make([]int, n)
	for i, ok := range challenged {
		if ok {
			consumed[i%n] += authK
		}
	}
	for j := 0; j < 32; j++ {
		d := j * n / 32
		var info authserve.DeviceResponse
		if err := checker.get(ctx, "device", "/v1/devices/"+fx.ids[d], &info); err != nil {
			r.gate("device check: %v", err)
			continue
		}
		if want := fx.provers[d].Enrollment.NumBits() - consumed[d]; info.Fresh != want || info.Outstanding != 0 {
			r.gate("device %s: fresh %d outstanding %d, want fresh %d outstanding 0", info.ID, info.Fresh, info.Outstanding, want)
		}
	}
	checker.close()

	drains, diskBytes, err := b.drainSamples(ctx, srv, o, p.drains, n)
	if err != nil {
		return nil, err
	}
	r.set("drain_s", medianSeconds(drains))
	r.set("disk_bytes_per_item", float64(diskBytes)/float64(n))
	b.logf("%s: drain %v, %d bytes after drain", name, drains, diskBytes)

	if traced {
		if err := checkRing(sink); err != nil {
			return nil, err
		}
		if err := spanLayers(r, sink.Events(), o.TraceOut, done, sum.P50); err != nil {
			return nil, err
		}
		if err := b.probe(r, fx.probe, n/16, probeDir, r.m["ready_s"]); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// drainSamples measures SIGINT-to-exit of the serving process and of
// count-1 relaunches over copies of its data dir taken before the drain
// (the server is idle, and every acknowledged write is already fsynced).
// Each drain folds the same WALs into the same snapshots, so every drained
// dir must end at the same size, which is returned.
func (b *bench) drainSamples(ctx context.Context, srv *server, o serverOptions, count, devices int) ([]time.Duration, int64, error) {
	var copies []string
	for i := 1; i < count; i++ {
		dst := o.DataDir + fmt.Sprintf("-drain-%d", i)
		if err := copyDir(o.DataDir, dst); err != nil {
			return nil, 0, err
		}
		copies = append(copies, dst)
	}
	d, err := srv.drain()
	if err != nil {
		return nil, 0, err
	}
	size, err := dirBytes(o.DataDir)
	if err != nil {
		return nil, 0, err
	}
	drains := []time.Duration{d}
	for _, dir := range copies {
		co := o
		co.DataDir, co.TraceOut = dir, ""
		s, err := startServer(ctx, co)
		if err != nil {
			return nil, 0, err
		}
		if s.Devices != devices {
			s.kill()
			return nil, 0, fmt.Errorf("drain copy recovered %d devices, want %d", s.Devices, devices)
		}
		d, err := s.drain()
		if err != nil {
			s.kill()
			return nil, 0, err
		}
		drains = append(drains, d)
		sz, err := dirBytes(dir)
		if err != nil {
			return nil, 0, err
		}
		if sz != size {
			return nil, 0, fmt.Errorf("drained copies differ: %d vs %d bytes", sz, size)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
	}
	return drains, size, nil
}
