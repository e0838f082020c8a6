package core

import (
	"bytes"
	"encoding/binary"
	mathbits "math/bits"
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
func binaryTestPairs(t testing.TB, n, stages int, seed int64) []Pair {
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
		if again, err := got.AppendBinary(nil); err != nil || !slices.Equal(again, data) {
			t.Fatalf("device %d: decoded enrollment re-encodes to different bytes (err %v)", di, err)
		}
		n, mask, ref, err := ScanEnrollmentBinary(data)
		if err != nil || n != len(enr.Selections) {
			t.Fatalf("device %d: scan gives %d pairs, err %v", di, n, err)
		}
		for i, sel := range enr.Selections {
			if mask[i/64]>>(i%64)&1 != 0 != enr.Mask[i] || ref[i/64]>>(i%64)&1 != 0 != sel.Bit {
				t.Fatalf("device %d pair %d: scanned mask or reference bit differs", di, i)
			}
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

	// Every prefix is truncated somewhere; neither decoder may panic or
	// accept one.
	for n := 0; n < len(valid); n++ {
		_, err := LoadEnrollmentBinary(valid[:n])
		if _, _, _, scanErr := ScanEnrollmentBinary(valid[:n]); err == nil || scanErr == nil {
			t.Fatalf("truncation to %d bytes accepted (errors %v, %v)", n, err, scanErr)
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
		_, err := LoadEnrollmentBinary(data)
		if _, _, _, scanErr := ScanEnrollmentBinary(data); err == nil || scanErr == nil {
			t.Errorf("%s accepted (errors %v, %v)", name, err, scanErr)
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

// TestBinaryRejectsInconsistentState drives the codec with states Enroll
// never produces: AppendBinary refuses the ones the format cannot express,
// and the decoder rejects every other one it wrote.
func TestBinaryRejectsInconsistentState(t *testing.T) {
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
			return Selection{Bit: bit}
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
		{"mixed stage counts", "earlier selections", Enrollment{Mode: Case1,
			Selections: []Selection{sel("101", "101", true), sel("1011", "1011", true)},
			Mask:       []bool{true, true}, Response: resp("11")}},
		{"bad mode", "invalid mode", Enrollment{Mode: 7,
			Selections: []Selection{sel("101", "101", true)}, Mask: []bool{true}, Response: resp("1")}},
		{"negative threshold", "negative threshold", Enrollment{Mode: Case2, Threshold: -1,
			Selections: []Selection{sel("101", "101", true)}, Mask: []bool{true}, Response: resp("1")}},
		{"flipped response bit", "inconsistent", Enrollment{Mode: Case1,
			Selections: []Selection{sel("101", "101", true)}, Mask: []bool{true}, Response: resp("0")}},
		{"kept pair without configuration", "no configuration", Enrollment{Mode: Case1,
			Selections: []Selection{sel("", "", true), sel("101", "101", true)},
			Mask:       []bool{true, true}, Response: resp("11")}},
		{"response longer than the kept pairs", "response has", Enrollment{Mode: Case1,
			Selections: []Selection{sel("101", "101", true), sel("101", "101", false)},
			Mask:       []bool{true, false}, Response: resp("10")}},
		{"no kept pair", "no bits", Enrollment{Mode: Case1,
			Selections: []Selection{sel("101", "101", true)}, Mask: []bool{false}, Response: resp("")}},
	}
	for _, c := range cases {
		data, err := c.e.AppendBinary(nil)
		if err == nil {
			_, err = LoadEnrollmentBinary(data)
			if _, _, _, serr := ScanEnrollmentBinary(data); (serr == nil) != (err == nil) {
				t.Errorf("%s: LoadEnrollmentBinary err %v, ScanEnrollmentBinary err %v", c.name, err, serr)
			}
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want it to mention %q", c.name, err, c.wantErr)
		}
	}
	// A masked pair with no configuration stays exempt from the
	// stage-count check.
	ok := Enrollment{Mode: Case1, Selections: []Selection{sel("", "", false), sel("1011", "1011", true)},
		Mask: []bool{false, true}, Response: resp("1")}
	data, err := ok.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEnrollmentBinary(data); err != nil {
		t.Fatalf("masked empty selection rejected: %v", err)
	}
}

// nonCanonical returns copies of body, each with one bit set that
// AppendBinary always leaves zero: an unused flag bit of pair 0, a padding
// bit of pair 0's X configuration, and — where the pair and kept counts
// leave room — a padding bit of the response and one of the mask, the
// latter also with a response length raised to count it, so that no
// length disagrees with the bit. Pair 0 must store a configuration whose
// stage count is not a multiple of 8.
func nonCanonical(t testing.TB, body []byte) map[string][]byte {
	n := int(binary.LittleEndian.Uint32(body[11:]))
	stages := int(binary.LittleEndian.Uint16(body[15:]))
	maskEnd := 17 + (n+7)/8
	if stages%8 == 0 || body[maskEnd]&flagConfig == 0 {
		t.Fatalf("pair 0 of a %d-stage body has no configuration padding", stages)
	}
	kept := 0
	for _, b := range body[17:maskEnd] {
		kept += mathbits.OnesCount8(b)
	}
	with := func(off int, bit byte) []byte {
		b := bytes.Clone(body)
		if b[off]&bit != 0 {
			t.Fatalf("bit %#x of byte %d is already set", bit, off)
		}
		b[off] |= bit
		return b
	}
	out := map[string][]byte{
		"unknown flag bit": with(maskEnd, 1<<2),
		"config padding":   with(maskEnd+9+(stages+7)/8-1, 0x80),
	}
	if kept%8 != 0 {
		out["response padding"] = with(len(body)-1, 0x80)
	}
	if n%8 != 0 {
		out["mask padding"] = with(maskEnd-1, 0x80)
	}
	if n%8 != 0 && kept%8 != 0 {
		b := with(maskEnd-1, 0x80)
		binary.LittleEndian.PutUint32(b[len(b)-4-(kept+7)/8:], uint32(kept+1))
		out["mask padding, counted"] = b
	}
	return out
}

// TestBinaryRejectsNonCanonical pins the canonical-body rule: a bit the
// encoder always leaves zero fails the decode, where it used to decode
// and re-encode to different bytes.
func TestBinaryRejectsNonCanonical(t *testing.T) {
	enr, err := Enroll(binaryTestPairs(t, 10, 13, 0xB3), Case2, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	body, err := enr.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	mutants := nonCanonical(t, body)
	if len(mutants) != 5 {
		t.Fatalf("a 10-pair body gave %d of the 5 mutations", len(mutants))
	}
	for name, data := range mutants {
		if _, err := LoadEnrollmentBinary(data); err == nil {
			t.Errorf("%s: LoadEnrollmentBinary accepted it", name)
		}
		if _, _, _, err := ScanEnrollmentBinary(data); err == nil {
			t.Errorf("%s: ScanEnrollmentBinary accepted it", name)
		}
	}
}

// appendPackedBoolsPerBit is appendPackedBools as it was before it packed
// a word at a time: a branch per bit, a byte appended per eight.
func appendPackedBoolsPerBit(dst []byte, bs []bool) []byte {
	var cur byte
	for i, b := range bs {
		if b {
			cur |= 1 << (i & 7)
		}
		if i&7 == 7 {
			dst = append(dst, cur)
			cur = 0
		}
	}
	if len(bs)&7 != 0 {
		dst = append(dst, cur)
	}
	return dst
}

// TestAppendPackedBoolsMatchesPerBit holds the word-at-a-time packer to
// the per-bit one, zero padding bits included, for every length 0–200
// with random, all-true and all-false patterns, appended after a prefix
// that must stay as it was.
func TestAppendPackedBoolsMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(0xB175))
	prefix := []byte{0xA5, 0x5A}
	for n := 0; n <= 200; n++ {
		bs := make([]bool, n)
		for pattern := 0; pattern < 12; pattern++ {
			for i := range bs {
				switch pattern {
				case 0:
					bs[i] = false
				case 1:
					bs[i] = true
				default:
					bs[i] = rng.Intn(2) == 1
				}
			}
			want := appendPackedBoolsPerBit(slices.Clone(prefix), bs)
			if got := appendPackedBools(slices.Clone(prefix), bs); !bytes.Equal(got, want) {
				t.Fatalf("n=%d pattern %d: packed %x, per-bit packer %x", n, pattern, got, want)
			}
		}
	}
}

// BenchmarkAppendBinary encodes 64 distinct 128-pair × 13-stage Case-2
// enrollments in turn into one reused buffer, so the packer sees a new
// bit pattern on every call.
func BenchmarkAppendBinary(b *testing.B) {
	enrs := make([]*Enrollment, 64)
	for i := range enrs {
		enr, err := Enroll(binaryTestPairs(b, 128, 13, int64(0xAB00+i)), Case2, 0, Options{})
		if err != nil {
			b.Fatal(err)
		}
		enrs[i] = enr
	}
	var dst []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = enrs[i%len(enrs)].AppendBinary(dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
}
