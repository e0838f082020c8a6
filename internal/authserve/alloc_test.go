package authserve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"ropuf/internal/core"
	"ropuf/internal/fleet"
	"ropuf/internal/obs/audit"
)

// serveReused drives h with a reusable request/recorder pair so the only
// allocations measured are the handler chain's own.
type serveReused struct {
	h   http.Handler
	rd  *bytes.Reader
	req *http.Request
	rec *benchRecorder
}

func newServeReused(h http.Handler, method, target string) *serveReused {
	rd := bytes.NewReader(nil)
	req := httptest.NewRequest(method, target, nil)
	req.Header.Set("Content-Type", "application/json")
	req.Body = io.NopCloser(rd)
	return &serveReused{h: h, rd: rd, req: req, rec: newBenchRecorder()}
}

func (s *serveReused) do(body []byte) int {
	s.rd.Reset(body)
	s.rec.reset()
	s.h.ServeHTTP(s.rec, s.req)
	return s.rec.code
}

// TestServerVerifyAllocBudget is the hard gate on the zero-alloc verify
// path: at most 8 heap allocations per request through the full handler
// chain (admission, hand JSON decode, store verify, hand JSON encode,
// metrics). The steady-state residue is the two identity strings the
// store may retain plus pool noise; 8 leaves headroom without letting a
// per-request decoder or encoder sneak back in.
func TestServerVerifyAllocBudget(t *testing.T) {
	for _, auditOn := range []bool{false, true} {
		t.Run(fmt.Sprintf("audit=%v", auditOn), func(t *testing.T) {
			var w *audit.Writer
			if auditOn {
				w = audit.NewWriter(io.Discard)
				defer w.Close()
			}
			store, err := Open(StoreOptions{Shards: 4, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			srv := NewServer(store, ServerOptions{Audit: w})
			sr := newServeReused(srv.Handler(), http.MethodPost, "/v1/verify")

			const runs = 200
			primer := &verifyPrimer{tb: t, store: store}
			bodies := primer.prime(64) // 64 devices × 8 challenges each
			if len(bodies) < runs+1 {
				t.Fatalf("primer produced %d bodies, need %d", len(bodies), runs+1)
			}
			// Warm the scratch pool and metric-series cache so the measured
			// window sees steady state, then measure.
			if code := sr.do(bodies[0]); code != http.StatusOK {
				t.Fatalf("warmup verify returned %d", code)
			}
			j := 1
			avg := testing.AllocsPerRun(runs-1, func() {
				if code := sr.do(bodies[j]); code != http.StatusOK {
					t.Fatalf("verify %d returned %d", j, code)
				}
				j++
			})
			if avg > 8 {
				t.Errorf("verify path averages %.1f allocs/request, budget is 8", avg)
			}
			t.Logf("verify allocs/request: %.1f (audit=%v)", avg, auditOn)
		})
	}
}

// TestServerChallengeAllocBudget bounds the hand-coded challenge path.
// Challenge legitimately allocates what it returns and records — the
// chosen-pairs slice, the challenge object and its nonce, the outstanding
// map entry — so the bound is a measured ceiling against regression, not
// a zero-alloc claim (measured: 7/request; ceiling 12).
func TestServerChallengeAllocBudget(t *testing.T) {
	store, err := Open(StoreOptions{Shards: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := NewServer(store, ServerOptions{})
	sr := newServeReused(srv.Handler(), http.MethodPost, "/v1/challenge")

	devices, err := fleet.Synthetic(64, 16, 13, 0x7A11)
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for _, d := range devices {
		if _, err := store.Enroll(d.ID, d.Pairs, core.Case2); err != nil {
			t.Fatal(err)
		}
		// Each 16-pair device sustains 8 k=2 challenges.
		for i := 0; i < 8; i++ {
			bodies = append(bodies, []byte(fmt.Sprintf(`{"id":%q,"k":2}`, d.ID)))
		}
	}
	const runs = 200
	if len(bodies) < runs+1 {
		t.Fatalf("prepared %d bodies, need %d", len(bodies), runs+1)
	}
	if code := sr.do(bodies[0]); code != http.StatusOK {
		t.Fatalf("warmup challenge returned %d", code)
	}
	j := 1
	avg := testing.AllocsPerRun(runs-1, func() {
		if code := sr.do(bodies[j]); code != http.StatusOK {
			t.Fatalf("challenge %d returned %d", j, code)
		}
		j++
	})
	if avg > 12 {
		t.Errorf("challenge path averages %.1f allocs/request, ceiling is 12", avg)
	}
	t.Logf("challenge allocs/request: %.1f", avg)
}
