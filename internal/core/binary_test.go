package core

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ropuf/internal/bits"
	"ropuf/internal/circuit"
)

// binaryTestPairs fabricates deterministic per-stage delay vectors; the
// fleet package can't be used here (it imports core).
func binaryTestPairs(t *testing.T, n, stages int, seed int64) []Pair {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]Pair, n)
	for i := range pairs {
		alpha := make([]float64, stages)
		beta := make([]float64, stages)
		for s := 0; s < stages; s++ {
			alpha[s] = 100 + 10*rng.NormFloat64()
			beta[s] = 100 + 10*rng.NormFloat64()
		}
		pairs[i] = Pair{Alpha: alpha, Beta: beta}
	}
	return pairs
}

// TestBinaryRoundTrip pins that an enrollment encoded with AppendBinary
// decodes to exactly the original state — masked pairs, margins and
// reference bits included — in both modes, and evaluates identically.
func TestBinaryRoundTrip(t *testing.T) {
	for di := 0; di < 4; di++ {
		pairs := binaryTestPairs(t, 24, 13, int64(0xB1+di))
		mode, threshold := Case2, 0.0
		if di%2 == 1 {
			mode, threshold = Case1, 2 // masks the low-margin pairs
		}
		enr, err := Enroll(pairs, mode, threshold, Options{})
		if err != nil {
			t.Fatal(err)
		}
		data, err := enr.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := LoadEnrollmentBinary(data)
		if err != nil {
			t.Fatalf("decoding device %d: %v", di, err)
		}
		if got.Mode != enr.Mode || got.Threshold != enr.Threshold ||
			!reflect.DeepEqual(got.Mask, enr.Mask) || !got.Response.Equal(enr.Response) {
			t.Fatalf("device %d: mode, threshold, mask or response changed in round trip", di)
		}
		if len(got.Selections) != len(enr.Selections) {
			t.Fatalf("device %d: %d selections, want %d", di, len(got.Selections), len(enr.Selections))
		}
		for i, sel := range enr.Selections {
			g := got.Selections[i]
			if !slices.Equal(g.X, sel.X) || !slices.Equal(g.Y, sel.Y) || g.Margin != sel.Margin || g.Bit != sel.Bit {
				t.Fatalf("device %d selection %d: %+v, want %+v", di, i, g, sel)
			}
		}
		a, err := enr.Evaluate(pairs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Evaluate(pairs)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("device %d: decoded enrollment evaluates differently", di)
		}
	}
}

// TestBinaryRoundTripDegeneratePair keeps a degenerate pair masked, with
// no configuration, through the round trip.
func TestBinaryRoundTripDegeneratePair(t *testing.T) {
	pairs := []Pair{
		{Alpha: []float64{5, 5}, Beta: []float64{5, 5}}, // degenerate
		{Alpha: []float64{9, 5}, Beta: []float64{5, 5}},
	}
	orig, err := Enroll(pairs, Case1, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := orig.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEnrollmentBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Mask[0] || loaded.Selections[0].X != nil {
		t.Fatal("degenerate pair mask lost in round trip")
	}
	regen, err := loaded.Evaluate(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if !regen.Equal(orig.Response) {
		t.Fatal("loaded enrollment with masked pair evaluates differently")
	}
}

// TestBinaryRejectsCorruption drives the decoder with hostile inputs:
// every truncation, trailing garbage, and semantic inconsistency must
// error instead of panicking or silently succeeding.
func TestBinaryRejectsCorruption(t *testing.T) {
	enr, err := Enroll(binaryTestPairs(t, 16, 13, 0xB2), Case2, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	valid, err := enr.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Every prefix is truncated somewhere; none may panic or succeed.
	for n := 0; n < len(valid); n++ {
		if _, err := LoadEnrollmentBinary(valid[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	cases := map[string][]byte{
		"json payload":     []byte(`{"version":1}`),
		"huge count":       append(append([]byte(nil), valid[:11]...), 0xFF, 0xFF, 0xFF, 0x00, 13, 0),
		"wrong magic":      append([]byte{0x00}, valid[1:]...),
		"wrong version":    append([]byte{valid[0], 99}, valid[2:]...),
		"trailing garbage": append(append([]byte(nil), valid...), 0xAA),
		"bad mode":         append([]byte{valid[0], valid[1], 7}, valid[3:]...),
	}
	for name, data := range cases {
		if _, err := LoadEnrollmentBinary(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	// A flipped response bit breaks the reference-vs-selection check.
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 1
	if _, err := LoadEnrollmentBinary(flipped); err == nil ||
		!strings.Contains(err.Error(), "inconsistent") {
		t.Errorf("flipped response bit: %v", err)
	}
}

// TestValidateEnrollmentRejectsInconsistentState drives the semantic gate
// with states no encoder writes but a corrupt record could decode to.
func TestValidateEnrollmentRejectsInconsistentState(t *testing.T) {
	cfg := func(s string) circuit.Config {
		c, err := circuit.ParseConfig(s)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	resp := func(s string) *bits.Stream {
		b, err := bits.FromString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	sel := func(x, y string, bit bool) Selection {
		if x == "" {
			return Selection{}
		}
		return Selection{X: cfg(x), Y: cfg(y), Margin: 2, Bit: bit}
	}
	cases := []struct {
		name, wantErr string
		e             Enrollment
	}{
		{"mask longer than selections", "mask length", Enrollment{Mode: Case1,
			Selections: []Selection{sel("101", "101", true)}, Mask: []bool{true, true}, Response: resp("11")}},
		{"x/y lengths differ", "config lengths differ", Enrollment{Mode: Case1,
			Selections: []Selection{sel("101", "10", true)}, Mask: []bool{true}, Response: resp("1")}},
		{"mixed stage counts", "mixed ring sizes", Enrollment{Mode: Case1,
			Selections: []Selection{sel("101", "101", true), sel("1011", "1011", true)},
			Mask:       []bool{true, true}, Response: resp("11")}},
		{"bad mode", "invalid mode", Enrollment{Mode: 7,
			Selections: []Selection{sel("101", "101", true)}, Mask: []bool{true}, Response: resp("1")}},
		{"flipped response bit", "inconsistent", Enrollment{Mode: Case1,
			Selections: []Selection{sel("101", "101", true)}, Mask: []bool{true}, Response: resp("0")}},
	}
	for _, c := range cases {
		err := validateEnrollment(&c.e)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want it to mention %q", c.name, err, c.wantErr)
		}
	}
	// A masked pair with no configuration stays exempt from the
	// stage-count check.
	ok := Enrollment{Mode: Case1, Selections: []Selection{sel("", "", false), sel("1011", "1011", true)},
		Mask: []bool{false, true}, Response: resp("1")}
	if err := validateEnrollment(&ok); err != nil {
		t.Fatalf("masked empty selection rejected: %v", err)
	}
}
