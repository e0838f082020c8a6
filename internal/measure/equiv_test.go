package measure

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ropuf/internal/circuit"
	"ropuf/internal/rngx"
	"ropuf/internal/silicon"
)

var updateGolden = flag.Bool("update", false, "rewrite golden measurement files")

// DdiffsNaive is the direct reference implementation of the leave-one-out
// protocol: n+1 whole-ring evaluations, each computing every device's
// delay (the pre-optimization cost model, O(n²) stage evaluations and,
// off nominal, O(n²) math.Pow calls). It consumes the RNG
// identically to Ddiffs; the results agree with Ddiffs to within
// floating-point summation order (a few ULPs of the loop delay). It is the
// reference for the equivalence tests and the measurement benchmarks.
func (m *Meter) DdiffsNaive(r *circuit.Ring) ([]float64, error) {
	n := r.NumStages()
	if n == 0 {
		return nil, fmt.Errorf("measure: ring has no stages")
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	baseline, err := m.HalfPeriodPS(r, circuit.NewConfig(n))
	if err != nil {
		return nil, err
	}
	if n == 1 {
		sel, err := m.HalfPeriodPS(r, circuit.AllSelected(1))
		if err != nil {
			return nil, err
		}
		return []float64{sel - baseline}, nil
	}
	a := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		cfg := circuit.AllSelected(n)
		cfg[i] = false
		mi, err := m.HalfPeriodPS(r, cfg)
		if err != nil {
			return nil, err
		}
		a[i] = mi - baseline
		sum += a[i]
	}
	d := sum / float64(n-1)
	out := make([]float64, n)
	for i := range out {
		out[i] = d - a[i]
	}
	return out, nil
}

// ulpTolerance bounds the divergence the incremental protocol may introduce:
// it reorders floating-point sums whose magnitude is the whole-loop delay, so
// per-stage error accumulates to a modest multiple of that scale's ULP. The
// factor is generous (the observed error is a few ULPs) but still ~13 orders
// of magnitude below the ~picosecond physical scale of a ddiff.
func ulpTolerance(loopDelayPS float64, stages int) float64 {
	ulp := math.Nextafter(loopDelayPS, math.Inf(1)) - loopDelayPS
	return float64(stages+4) * 64 * ulp
}

// TestDdiffsFastMatchesNaive cross-checks the incremental Ddiffs against the
// direct n+1-evaluation reference over random dies, ring sizes, noise
// settings, and environments.
func TestDdiffsFastMatchesNaive(t *testing.T) {
	envs := []silicon.Env{silicon.Nominal, {V: 1.08, T: 45}, {V: 1.32, T: -20}, {V: 0.96, T: 85}}
	pick := rngx.New(0xEC)
	for trial := 0; trial < 40; trial++ {
		stages := 1 + pick.Intn(24)
		r := buildRing(t, stages, uint64(500+trial))
		env := envs[pick.Intn(len(envs))]
		seed := pick.Uint64()
		noise := []float64{0, 0.5, 2.0}[pick.Intn(3)]
		repeats := 1 + pick.Intn(6)

		fast := NewMeter(env, rngx.New(seed))
		fast.NoisePS, fast.Repeats = noise, repeats
		naive := NewMeter(env, rngx.New(seed))
		naive.NoisePS, naive.Repeats = noise, repeats

		got, err := fast.Ddiffs(r)
		if err != nil {
			t.Fatalf("trial %d: fast: %v", trial, err)
		}
		want, err := naive.DdiffsNaive(r)
		if err != nil {
			t.Fatalf("trial %d: naive: %v", trial, err)
		}
		loop, err := r.HalfPeriodPS(circuit.AllSelected(stages), env)
		if err != nil {
			t.Fatal(err)
		}
		tol := ulpTolerance(loop, stages)
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > tol {
				t.Fatalf("trial %d (stages=%d env=%+v noise=%g repeats=%d) stage %d: fast %.17g, naive %.17g, |Δ|=%g > tol %g",
					trial, stages, env, noise, repeats, i, got[i], want[i], d, tol)
			}
		}
	}
}

// TestDdiffsRNGStreamCompatible pins the protocol's noise-draw pattern: the
// incremental and naive paths must leave the meter's generator in the same
// state, so downstream measurement sequences do not depend on which
// implementation ran.
func TestDdiffsRNGStreamCompatible(t *testing.T) {
	for _, stages := range []int{1, 2, 7, 16} {
		r := buildRing(t, stages, uint64(700+stages))
		fastRNG := rngx.New(0xABCD)
		naiveRNG := rngx.New(0xABCD)
		fast := NewMeter(silicon.Nominal, fastRNG)
		naive := NewMeter(silicon.Nominal, naiveRNG)
		if _, err := fast.Ddiffs(r); err != nil {
			t.Fatal(err)
		}
		if _, err := naive.DdiffsNaive(r); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if a, b := fastRNG.Norm(), naiveRNG.Norm(); a != b {
				t.Fatalf("stages=%d: post-protocol draw %d diverged: fast left the RNG in a different state", stages, i)
			}
		}
		if a, b := fastRNG.Uint64(), naiveRNG.Uint64(); a != b {
			t.Fatalf("stages=%d: raw stream positions diverged", stages)
		}
	}
}

// TestDdiffsGolden pins the incremental protocol's exact output bits (and the
// meter RNG's post-call state) for a fixed die, so unintentional numeric
// drift in the fast path is caught even where the naive cross-check's
// tolerance would absorb it. Regenerate with:
//
//	go test ./internal/measure -run TestDdiffsGolden -update
func TestDdiffsGolden(t *testing.T) {
	const stages = 8
	r := buildRing(t, stages, 0xD1E)
	rng := rngx.New(0x601D) // arbitrary fixed seed
	m := NewMeter(silicon.Env{V: 1.14, T: 40}, rng)

	got, err := m.Ddiffs(r)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, 0, stages+1)
	for _, v := range got {
		lines = append(lines, fmt.Sprintf("%016x", math.Float64bits(v)))
	}
	lines = append(lines, fmt.Sprintf("next=%016x", rng.Uint64()))
	content := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "ddiffs_v1.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to generate): %v", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(lines) {
		t.Fatalf("golden has %d lines, produced %d; regenerate with -update if the change is intentional", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("golden line %d: got %s, want %s", i, lines[i], want[i])
		}
	}
	if t.Failed() {
		t.Fatal("Ddiffs output bits drifted from testdata/ddiffs_v1.golden; " +
			"if intentional, regenerate with: go test ./internal/measure -run TestDdiffsGolden -update")
	}
	// Sanity on the golden itself: values must parse and be finite.
	for i := 0; i < stages; i++ {
		bits, err := strconv.ParseUint(want[i], 16, 64)
		if err != nil {
			t.Fatalf("golden line %d unparseable: %v", i, err)
		}
		if v := math.Float64frombits(bits); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("golden line %d is non-finite", i)
		}
	}
}

// TestDdiffsScratchReuseIsolated verifies consecutive measurements through
// one Meter do not leak state between rings via the reused scratch buffers.
func TestDdiffsScratchReuseIsolated(t *testing.T) {
	big := buildRing(t, 16, 0xA1)
	small := buildRing(t, 3, 0xA2)
	m := NewMeter(silicon.Nominal, rngx.New(5))
	if _, err := m.Ddiffs(big); err != nil {
		t.Fatal(err)
	}
	got, err := m.Ddiffs(small)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewMeter(silicon.Nominal, rngx.New(5))
	// Consume the big ring's draws so the fresh meter's stream aligns.
	if _, err := fresh.Ddiffs(big); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Ddiffs(small)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stage %d: scratch reuse changed result: %g vs %g", i, got[i], want[i])
		}
	}
	if len(got) != small.NumStages() {
		t.Fatalf("got %d ddiffs for %d-stage ring", len(got), small.NumStages())
	}
}

// TestHalfPeriodValidatesBeforeTruth pins the input-validation order: a
// meter with invalid Repeats must fail before evaluating the ring, so the
// error is identical for valid and invalid configurations.
func TestHalfPeriodValidatesBeforeTruth(t *testing.T) {
	r := buildRing(t, 3, 0xB3)
	m := NewMeter(silicon.Nominal, rngx.New(6))
	m.Repeats = 0
	_, errValid := m.HalfPeriodPS(r, circuit.NewConfig(3))
	_, errInvalid := m.HalfPeriodPS(r, circuit.NewConfig(99)) // wrong length
	if errValid == nil || errInvalid == nil {
		t.Fatal("Repeats=0 accepted")
	}
	if errValid.Error() != errInvalid.Error() {
		t.Fatalf("validation order leaks ring state: %q vs %q", errValid, errInvalid)
	}
	if _, err := m.Ddiffs(r); err == nil {
		t.Fatal("Ddiffs accepted Repeats=0")
	}
	if _, err := m.DdiffsNaive(r); err == nil {
		t.Fatal("DdiffsNaive accepted Repeats=0")
	}
}
