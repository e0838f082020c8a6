package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"ropuf/internal/authserve"
	"ropuf/internal/core"
	"ropuf/internal/fleet"
	"ropuf/internal/obs"
)

// The provision workload: a closed loop of nproc clients, each sending the
// next durable binary-wire enroll of a fresh device as soon as its last
// one was acknowledged, against a store that already holds a drained
// fleet.
const (
	provExisting = 512  // devices enrolled and folded into snapshots at set-up
	provRate     = 250  // enrolls per second of --seconds: the fixed op count
	provPool     = 1000 // distinct pre-fabricated dies; enroll i uses die i mod provPool
)

// provFixture is the provision workload's set-up: the snapshot-only data
// dir and the pre-fabricated silicon pool with what a client-side
// core.Enroll of each die yields.
type provFixture struct {
	pairs [][]authserve.PairWire // each die's measurement, as the wire carries it
	bits  []int                  // usable bits of a client-side core.Enroll
	probe []fleet.Device         // the first dies of the pool, for the layer probes
}

func (b *bench) provisionSetup(dir string) (*provFixture, error) {
	existing, err := fleet.Synthetic(provExisting, authPairs, authStages, b.sub(5))
	if err != nil {
		return nil, err
	}
	store, err := authserve.Open(authserve.StoreOptions{Dir: dir, Shards: 16, Seed: b.sub(2)})
	if err != nil {
		return nil, err
	}
	err = forEach(len(existing), b.conns, func(i int) error {
		_, err := store.Enroll(existing[i].ID, existing[i].Pairs, core.Case2)
		return err
	})
	if err == nil {
		err = store.SaveAll()
	}
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("provision set-up: %w", err)
	}

	pool, err := fleet.Synthetic(provPool, authPairs, authStages, b.sub(6))
	if err != nil {
		return nil, err
	}
	fx := &provFixture{
		pairs: make([][]authserve.PairWire, provPool),
		bits:  make([]int, provPool),
		probe: keepProbe(pool),
	}
	err = forEach(provPool, b.conns, func(i int) error {
		enr, err := core.Enroll(pool[i].Pairs, core.Case2, 0, core.Options{})
		if err != nil {
			return err
		}
		fx.bits[i] = enr.NumBits()
		fx.pairs[i] = make([]authserve.PairWire, len(pool[i].Pairs))
		for j, p := range pool[i].Pairs {
			fx.pairs[i][j] = authserve.PairWire{Alpha: p.Alpha, Beta: p.Beta}
		}
		return nil
	})
	return fx, err
}

// provID names the device of enroll i.
func provID(i int) string { return fmt.Sprintf("prov-%06d", i) }

func (b *bench) provisionRun(ctx context.Context, name string, p plan, traced bool) (*measured, error) {
	r := newMeasured()
	count := provRate * b.seconds
	fx, dir, err := repeatSetup(b, r, name, p.setups, b.provisionSetup)
	if err != nil {
		return nil, err
	}
	b.logf("%s: %d existing devices, %d to enroll", name, provExisting, count)

	var probeDir string
	if traced {
		probeDir = filepath.Join(b.work, name+"-open")
		if err := copyDir(dir, probeDir); err != nil {
			return nil, err
		}
	}
	o := serverOptions{Bin: b.bin, DataDir: dir, Seed: b.sub(4)}
	if traced {
		o.TraceOut = filepath.Join(b.work, name+"-server.jsonl")
	}
	// Each launch loads the JSON snapshots, so five are enough for a median.
	srv, readies, err := readyCycles(ctx, o, min(p.readies, 5), provExisting)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	r.set("ready_s", medianSeconds(readies))
	b.logf("%s: ready %v", name, readies)

	var sink *obs.RingSink
	var tracer *obs.Tracer // nil: untraced
	if traced {
		sink, tracer = ringSink(count + 16)
	}
	c := newClient(srv.Addr, b.conns, tracer)
	defer c.close()
	acked := make([]bool, count)
	var bufs sync.Pool // request encode buffers, reused once a response is read
	op := func(i int) error {
		die := i % provPool
		req := authserve.EnrollRequest{ID: provID(i), Mode: "case2", Pairs: fx.pairs[die]}
		buf, _ := bufs.Get().(*[]byte)
		if buf == nil {
			buf = new([]byte)
		}
		defer bufs.Put(buf)
		body, err := authserve.AppendEnrollBinary((*buf)[:0], &req)
		if err != nil {
			return err
		}
		*buf = body
		var resp authserve.EnrollResponse
		if err := c.do(ctx, "enroll", http.MethodPost, "/v1/enroll", authserve.EnrollContentTypeBinary, body, &resp); err != nil {
			return err
		}
		acked[i] = true
		if resp.ID != req.ID || resp.Pairs != authPairs || resp.Bits != fx.bits[die] || resp.Fresh != fx.bits[die] {
			return fmt.Errorf("enroll %s: got %+v, want %d pairs with bits = fresh = %d", req.ID, resp, authPairs, fx.bits[die])
		}
		return nil
	}

	sizeBefore, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	before, err := readServer(ctx, srv, c)
	if err != nil {
		return nil, err
	}
	loop := closedLoop(count, b.conns, op)
	after, err := readServer(ctx, srv, c)
	if err != nil {
		return nil, err
	}
	done := len(loop.Lat)
	r.attempted, r.failed = count, loop.Failed
	for _, e := range loop.Errs {
		r.gate("enroll failed: %v", e)
	}
	sum := summarize(loop.Lat, loop.Failed)
	r.set("p50_ms", ms(sum.P50))
	r.set("tail_ms", ms(sum.Tail))
	r.set("ops_per_s", float64(done)/loop.Wall.Seconds())
	recordServer(r, before, after, done)
	b.logf("%s: %d/%d enrolls in %v, %s", name, done, count, loop.Wall.Round(time.Millisecond), sum.describe())
	sizeAfter, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	ackedN := 0
	for _, ok := range acked {
		if ok {
			ackedN++
		}
	}
	r.set("disk_bytes_per_item", perOp(float64(sizeAfter-sizeBefore), ackedN))

	// Crash, then recover: every acknowledged device must be listed with
	// the state its enroll acknowledged.
	srv.kill()
	ro := o
	ro.TraceOut = ""
	restarted, err := startServer(ctx, ro)
	if err != nil {
		return nil, err
	}
	defer restarted.kill()
	if want := provExisting + ackedN; restarted.Devices != want {
		r.gate("restart after SIGKILL recovered %d devices, want %d", restarted.Devices, want)
	}
	checker := newClient(restarted.Addr, b.conns, nil)
	err = forEach(count, b.conns, func(i int) error {
		if !acked[i] {
			return nil
		}
		var info authserve.DeviceResponse
		if err := checker.get(ctx, "device", "/v1/devices/"+provID(i), &info); err != nil {
			return err
		}
		if want := fx.bits[i%provPool]; info.Bits != want || info.Fresh != want {
			return fmt.Errorf("device %s after restart: bits %d fresh %d, want %d", info.ID, info.Bits, info.Fresh, want)
		}
		return nil
	})
	checker.close()
	if err != nil {
		r.gate("acknowledged device lost or changed across SIGKILL: %v", err)
	}

	// One drain: it folds every enrolled device (seconds of work), and
	// relaunching copies would reload them all first.
	drains, _, err := b.drainSamples(ctx, restarted, ro, 1, provExisting+ackedN)
	if err != nil {
		return nil, err
	}
	r.set("drain_s", medianSeconds(drains))
	b.logf("%s: drain %v", name, drains)

	if traced {
		if err := checkRing(sink); err != nil {
			return nil, err
		}
		if err := spanLayers(r, sink.Events(), o.TraceOut, done, sum.P50); err != nil {
			return nil, err
		}
		if err := b.probe(r, fx.probe, provExisting/16, probeDir, r.m["ready_s"]); err != nil {
			return nil, err
		}
	}
	return r, nil
}
