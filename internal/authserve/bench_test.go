package authserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ropuf/internal/auth"
	"ropuf/internal/core"
	"ropuf/internal/fleet"
	"ropuf/internal/obs/audit"
)

// benchmarkStoreEnroll measures the durable-enroll cost against a store
// preloaded with 1024 devices (the acceptance scale for the WAL work).
// writeThrough=false is the shipping path: one O(record) WAL append +
// fsync per enroll. writeThrough=true re-runs the pre-WAL durability
// model on the same store — every enroll rewrites the device's whole
// shard snapshot, O(shard) and growing with fleet size — so the two
// numbers side by side in BENCH_authserve.json pin the complexity claim.
func benchmarkStoreEnroll(b *testing.B, writeThrough bool) {
	// A small pool of fabricated silicon is enough: enroll cost depends on
	// pair count, not on which pairs, so iterations reuse pool pairs under
	// fresh device IDs instead of fabricating b.N devices.
	pool, err := fleet.Synthetic(64, 16, 13, 0xBE9C)
	if err != nil {
		b.Fatal(err)
	}
	store, err := Open(StoreOptions{Shards: 16, Dir: b.TempDir(), CompactBytes: -1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	for i := 0; i < 1024; i++ {
		if _, err := store.Enroll(fmt.Sprintf("seed-%04d", i), pool[i%len(pool)].Pairs, core.Case2); err != nil {
			b.Fatal(err)
		}
	}
	// Fold the preload so both variants start identically: 1024 devices in
	// shard snapshots, empty logs.
	if err := store.SaveAll(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("bench-%08d", i)
		if _, err := store.Enroll(id, pool[i%len(pool)].Pairs, core.Case2); err != nil {
			b.Fatal(err)
		}
		if writeThrough {
			sh := store.shardFor(id)
			sh.mu.Lock()
			err := sh.persistLocked()
			sh.mu.Unlock()
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkStoreEnrollWAL(b *testing.B)      { benchmarkStoreEnroll(b, false) }
func BenchmarkStoreEnrollSnapshot(b *testing.B) { benchmarkStoreEnroll(b, true) }

// BenchmarkStoreEnrollWALParallel measures durable enroll throughput as
// client concurrency grows — the group-commit acceptance benchmark. With
// per-record fsync this curve is flat (every enroll pays its own flush,
// serialized per shard); with group commit the waiters that queue during
// one batch's fsync share the next one, so enrolls/s should scale
// roughly with clients until the disk's flush rate saturates. The
// clients=1 leg doubles as the no-regression pin: a lone writer finds the
// commit token free and must commit its own record immediately.
//
// The configuration deliberately isolates the durability path. Devices
// are tiny (2 pairs) so the CPU-bound selection algorithm — which cannot
// parallelize on a small core count and is benchmarked separately by
// BenchmarkStoreEnrollWAL at acceptance scale — does not flatten the
// curve, and the store runs a single shard so the whole client pool
// contends on one shard log (batch depth ≈ clients; with hash-spread
// shards it would be clients/shards, measuring shard fan-out rather than
// group commit).
func BenchmarkStoreEnrollWALParallel(b *testing.B) {
	for _, clients := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			pool, err := fleet.Synthetic(64, 2, 13, 0xBE9C)
			if err != nil {
				b.Fatal(err)
			}
			store, err := Open(StoreOptions{Shards: 1, Dir: b.TempDir(), CompactBytes: -1, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			ids := make([]string, b.N)
			for i := range ids {
				ids[i] = fmt.Sprintf("bench-%08d", i)
			}

			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			var next atomic.Int64
			errc := make(chan error, clients)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) {
							return
						}
						if _, err := store.Enroll(ids[i], pool[int(i)%len(pool)].Pairs, core.Case2); err != nil {
							select {
							case errc <- err:
							default:
							}
							return
						}
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			select {
			case err := <-errc:
				b.Fatal(err)
			default:
			}
			if elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed.Seconds(), "enrolls/s")
			}
		})
	}
}

// benchRecorder is a minimal reusable ResponseWriter: the handler's own
// allocations are what the verify benchmarks pin, so the sink must not
// contribute any (httptest.NewRecorder costs several per request).
type benchRecorder struct {
	header http.Header
	code   int
	n      int
	body   []byte // retained only when keepBody is set
	keep   bool
}

func newBenchRecorder() *benchRecorder {
	return &benchRecorder{header: make(http.Header, 4), code: http.StatusOK}
}

func (r *benchRecorder) Header() http.Header { return r.header }
func (r *benchRecorder) WriteHeader(c int)   { r.code = c }
func (r *benchRecorder) Write(p []byte) (int, error) {
	r.n += len(p)
	if r.keep {
		r.body = append(r.body[:0], p...)
	}
	return len(p), nil
}
func (r *benchRecorder) reset() {
	r.code = http.StatusOK
	r.n = 0
	for k := range r.header {
		delete(r.header, k)
	}
}

// verifyPrimer enrolls round-salted synthetic fleets and drains their
// challenge pools into ready-to-send verify request bodies, so callers
// (benchmarks and alloc guards) time or measure pure verify traffic.
type verifyPrimer struct {
	tb    testing.TB
	store *Store
	round int
}

func (p *verifyPrimer) prime(nDevices int) [][]byte {
	p.round++
	devices, err := fleet.Synthetic(nDevices, 16, 13, uint64(0xA0D1+p.round))
	if err != nil {
		p.tb.Fatal(err)
	}
	var bodies [][]byte
	for i, d := range devices {
		id := fmt.Sprintf("r%d-%s", p.round, d.ID)
		if _, err := p.store.Enroll(id, d.Pairs, core.Case2); err != nil {
			p.tb.Fatal(err)
		}
		enr, err := core.Enroll(d.Pairs, core.Case2, 0, core.Options{})
		if err != nil {
			p.tb.Fatal(err)
		}
		prover := &auth.Prover{Enrollment: enr}
		for {
			nonce, ch, _, err := p.store.Challenge(id, 2)
			if err != nil {
				break // pool drained for this device
			}
			resp, err := prover.Respond(ch, devices[i].Pairs)
			if err != nil {
				p.tb.Fatal(err)
			}
			body, err := json.Marshal(VerifyRequest{ID: id, ChallengeID: nonce, Response: resp.String()})
			if err != nil {
				p.tb.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	return bodies
}

// benchmarkServerVerify measures the full verify HTTP handler at the
// acceptance scale (1024 enrolled devices) with the audit stream on or
// off. The two numbers side by side in BENCH_authserve.json pin both the
// steady-state audit overhead budget (<3%) and the zero-alloc hot path:
// the request and response sink are reused, so allocs/op is the handler
// chain's own footprint (the ≤8 acceptance bound; see
// TestServerVerifyAllocBudget for the hard gate).
func benchmarkServerVerify(b *testing.B, auditOn bool) {
	const nDevices = 1024
	var w *audit.Writer
	if auditOn {
		w = audit.NewWriter(io.Discard)
		defer w.Close()
	}
	store, err := Open(StoreOptions{Shards: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	srv := NewServer(store, ServerOptions{Audit: w})
	h := srv.Handler()

	primer := &verifyPrimer{tb: b, store: store}
	bodies := primer.prime(nDevices)

	// One request and one recorder serve the whole run: the body reader is
	// re-pointed at each pre-encoded payload, mirroring how a connection's
	// request object is reused by the HTTP server itself.
	rd := bytes.NewReader(nil)
	req := httptest.NewRequest(http.MethodPost, "/v1/verify", nil)
	req.Header.Set("Content-Type", "application/json")
	req.Body = io.NopCloser(rd)
	rec := newBenchRecorder()

	b.ReportAllocs()
	b.ResetTimer()
	j := 0
	for i := 0; i < b.N; i++ {
		if j == len(bodies) {
			b.StopTimer()
			bodies, j = primer.prime(nDevices), 0
			b.StartTimer()
		}
		rd.Reset(bodies[j])
		rec.reset()
		h.ServeHTTP(rec, req)
		if rec.code != http.StatusOK {
			b.Fatalf("verify returned %d on request %d", rec.code, i)
		}
		j++
	}
	b.StopTimer()
	if auditOn && w.Dropped() > 0 {
		b.Fatalf("audit writer dropped %d events during the benchmark, want 0", w.Dropped())
	}
}

func BenchmarkServerVerifyAuditOn(b *testing.B)  { benchmarkServerVerify(b, true) }
func BenchmarkServerVerifyAuditOff(b *testing.B) { benchmarkServerVerify(b, false) }

// BenchmarkEnrollDecodeBinary prices the binary enroll decode of a
// paper-shaped body (128 pairs × 13 stages, 27 KB). With backing=cold every
// call allocates its float backing array, as a request does when the pool
// hands out a fresh scratch; with backing=pooled each call reuses the array
// the last one returned, the server's steady state. B/op and allocs/op are
// the numbers to watch.
func BenchmarkEnrollDecodeBinary(b *testing.B) {
	devices, err := fleet.Synthetic(1, 128, 13, 0x5EED)
	if err != nil {
		b.Fatal(err)
	}
	body := binaryEnrollBody(b, devices[0], devices[0].ID)
	for _, pooled := range []bool{false, true} {
		name := "backing=cold"
		if pooled {
			name = "backing=pooled"
		}
		b.Run(name, func(b *testing.B) {
			var floats []float64
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req EnrollRequest
				back, err := decodeEnrollBinary(body, &req, floats)
				if err != nil {
					b.Fatal(err)
				}
				if pooled {
					floats = back
				}
			}
		})
	}
}
