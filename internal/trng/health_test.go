package trng

import (
	"testing"

	"ropuf/internal/rngx"
)

func TestNewHealthValidation(t *testing.T) {
	for _, h := range []float64{0, -0.5, 1.5} {
		if _, err := NewHealth(h); err == nil {
			t.Errorf("claimed entropy %g accepted", h)
		}
	}
	m, err := NewHealth(1)
	if err != nil {
		t.Fatal(err)
	}
	// For H = 1: RCT cutoff = 21 per the 90B formula.
	if m.rctCutoff != 21 {
		t.Fatalf("RCT cutoff %d, want 21 for H=1", m.rctCutoff)
	}
	if m.aptCutoff <= 512 || m.aptCutoff > 1024 {
		t.Fatalf("APT cutoff %d implausible for H=1", m.aptCutoff)
	}
}

func TestHealthCleanOnGoodSource(t *testing.T) {
	m, err := NewHealth(0.9)
	if err != nil {
		t.Fatal(err)
	}
	r := rngx.New(1)
	for i := 0; i < 200_000; i++ {
		m.Feed(r.Bool())
	}
	if !m.Healthy() {
		s, rct, apt := m.Stats()
		t.Fatalf("healthy source flagged: %d samples, %d RCT, %d APT", s, rct, apt)
	}
}

func TestHealthCatchesStuckSource(t *testing.T) {
	m, err := NewHealth(0.9)
	if err != nil {
		t.Fatal(err)
	}
	// A stuck-at-1 source must trip the RCT within the cutoff.
	fired := false
	for i := 0; i < 100; i++ {
		if !m.Feed(true) {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("stuck source not caught within 100 samples")
	}
	if m.Healthy() {
		t.Fatal("Healthy() true after a failure")
	}
}

func TestHealthCatchesHeavyBias(t *testing.T) {
	m, err := NewHealth(0.9)
	if err != nil {
		t.Fatal(err)
	}
	// 95% ones: the APT (and likely RCT) must fire well within a few
	// windows even though runs stay below the RCT cutoff occasionally.
	r := rngx.New(2)
	failures := 0
	for i := 0; i < 20_000; i++ {
		if !m.Feed(r.Float64() < 0.95) {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("heavily biased source passed the health tests")
	}
}

func TestHealthLowEntropyClaimTolerant(t *testing.T) {
	// Claiming a low entropy loosens the cutoffs: a mildly biased source
	// should pass under a 0.4-bit claim.
	m, err := NewHealth(0.4)
	if err != nil {
		t.Fatal(err)
	}
	r := rngx.New(3)
	for i := 0; i < 100_000; i++ {
		m.Feed(r.Float64() < 0.7)
	}
	if !m.Healthy() {
		_, rct, apt := m.Stats()
		t.Fatalf("70/30 source failed under 0.4-bit claim (%d RCT, %d APT)", rct, apt)
	}
}

func TestHealthWithGeneratorEndToEnd(t *testing.T) {
	// Healthy TRNG design point feeds clean; a jitter-starved one fails.
	good := testGenerator(t, 1e7, 120, 11)
	m, err := NewHealth(0.8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50_000; i++ {
		m.Feed(good.Bit())
	}
	if !m.Healthy() {
		_, rct, apt := m.Stats()
		t.Fatalf("good generator failed health tests (%d RCT, %d APT)", rct, apt)
	}

	bad := testGenerator(t, 1e6, 0, 12) // zero jitter: deterministic rotation
	mb, err := NewHealth(0.8)
	if err != nil {
		t.Fatal(err)
	}
	failures := 0
	for i := 0; i < 50_000; i++ {
		if !mb.Feed(bad.Bit()) {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("deterministic generator passed continuous health tests")
	}
}

func TestHealthStats(t *testing.T) {
	m, err := NewHealth(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		m.Feed(i%2 == 0)
	}
	s, rct, apt := m.Stats()
	if s != 10 || rct != 0 || apt != 0 {
		t.Fatalf("Stats = %d/%d/%d, want 10/0/0", s, rct, apt)
	}
}
