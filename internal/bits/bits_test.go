package bits

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAppendAndBit(t *testing.T) {
	s := New(0)
	pattern := []bool{true, false, false, true, true}
	for _, b := range pattern {
		s.Append(b)
	}
	if s.Len() != len(pattern) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(pattern))
	}
	for i, want := range pattern {
		if s.Bit(i) != want {
			t.Errorf("Bit(%d) = %v, want %v", i, s.Bit(i), want)
		}
	}
}

func TestCrossWordBoundary(t *testing.T) {
	s := New(0)
	for i := 0; i < 130; i++ {
		s.Append(i%3 == 0)
	}
	for i := 0; i < 130; i++ {
		if s.Bit(i) != (i%3 == 0) {
			t.Fatalf("Bit(%d) wrong across word boundary", i)
		}
	}
	if got, want := s.OnesCount(), 44; got != want {
		t.Fatalf("OnesCount = %d, want %d", got, want)
	}
}

func TestStringRoundtrip(t *testing.T) {
	check := func(raw uint64, lenSel uint8) bool {
		n := int(lenSel%100) + 1
		s := New(n)
		for i := 0; i < n; i++ {
			s.Append(raw>>(uint(i)%64)&1 == 1)
		}
		parsed, err := FromString(s.String())
		if err != nil {
			return false
		}
		return parsed.Equal(s)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromStringInvalid(t *testing.T) {
	if _, err := FromString("0102"); err == nil {
		t.Fatal("FromString accepted invalid character")
	}
	if s, err := FromString(""); err != nil || s.Len() != 0 {
		t.Fatal("FromString of empty string should return empty stream")
	}
}

func TestMustFromStringPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustFromString did not panic on invalid input")
		}
	}()
	MustFromString("01x")
}

// TestResetHidesStaleBits reuses a stream of ones for zeros: after Reset
// no earlier bit may show through, across a word boundary too.
func TestResetHidesStaleBits(t *testing.T) {
	s := New(0)
	for i := 0; i < 130; i++ {
		s.Append(true)
	}
	s.Reset()
	if s.Len() != 0 || s.OnesCount() != 0 {
		t.Fatalf("after Reset: Len %d, OnesCount %d", s.Len(), s.OnesCount())
	}
	for i := 0; i < 70; i++ {
		s.Append(false)
	}
	if s.OnesCount() != 0 {
		t.Fatalf("stale ones visible after Reset: %s", s.String())
	}
	if !s.Equal(MustFromString(strings.Repeat("0", 70))) {
		t.Fatalf("reused stream = %s", s.String())
	}
}

func TestAppendChars(t *testing.T) {
	s := MustFromString("1")
	if err := s.AppendChars([]byte("0110")); err != nil {
		t.Fatal(err)
	}
	if s.String() != "10110" {
		t.Fatalf("AppendChars = %q, want 10110", s.String())
	}
	// On error the bits before the offending character stay appended.
	err := s.AppendChars([]byte("01x1"))
	if err == nil || !strings.Contains(err.Error(), "position 2") {
		t.Fatalf("AppendChars error = %v, want one naming position 2", err)
	}
	if s.String() != "1011001" {
		t.Fatalf("after failed AppendChars = %q, want 1011001", s.String())
	}
}

func TestSetBit(t *testing.T) {
	s := MustFromString("0000")
	s.SetBit(2, true)
	if s.String() != "0010" {
		t.Fatalf("after SetBit = %q, want 0010", s.String())
	}
	s.SetBit(2, false)
	if s.String() != "0000" {
		t.Fatalf("after clearing = %q, want 0000", s.String())
	}
}

func TestIndexPanics(t *testing.T) {
	s := MustFromString("01")
	for _, f := range []func(){
		func() { s.Bit(-1) },
		func() { s.Bit(2) },
		func() { s.SetBit(2, true) },
		func() { s.Slice(0, 3) },
		func() { s.Slice(-1, 1) },
		func() { s.Slice(2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHammingDistanceKnown(t *testing.T) {
	a := MustFromString("10110")
	b := MustFromString("11100")
	d, err := HammingDistance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 {
		t.Fatalf("HD = %d, want 2", d)
	}
}

func TestHammingDistanceMismatch(t *testing.T) {
	a := MustFromString("101")
	b := MustFromString("10")
	if _, err := HammingDistance(a, b); err == nil {
		t.Fatal("HammingDistance accepted mismatched lengths")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustHammingDistance did not panic")
		}
	}()
	MustHammingDistance(a, b)
}

func randomStream(seed uint64, n int) *Stream {
	s := New(n)
	state := seed
	for i := 0; i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		s.Append(state>>40&1 == 1)
	}
	return s
}

func TestHammingDistanceProperties(t *testing.T) {
	check := func(seedA, seedB uint64, lenSel uint8) bool {
		n := int(lenSel%200) + 1
		a := randomStream(seedA, n)
		b := randomStream(seedB, n)
		dab := MustHammingDistance(a, b)
		dba := MustHammingDistance(b, a)
		if dab != dba {
			return false // symmetry
		}
		if MustHammingDistance(a, a) != 0 {
			return false // identity
		}
		if dab < 0 || dab > n {
			return false // bounds
		}
		// HD equals weight of XOR: check via manual loop.
		manual := 0
		for i := 0; i < n; i++ {
			if a.Bit(i) != b.Bit(i) {
				manual++
			}
		}
		return dab == manual
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHammingTriangleInequality(t *testing.T) {
	check := func(sa, sb, sc uint64) bool {
		const n = 96
		a, b, c := randomStream(sa, n), randomStream(sb, n), randomStream(sc, n)
		return MustHammingDistance(a, c) <= MustHammingDistance(a, b)+MustHammingDistance(b, c)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	a := MustFromString("1010")
	b := a.Clone()
	b.SetBit(0, false)
	if !a.Bit(0) {
		t.Fatal("Clone shares storage with original")
	}
	if !a.Clone().Equal(a) {
		t.Fatal("Clone not equal to original")
	}
}

func TestSlice(t *testing.T) {
	s := MustFromString("11001010")
	sub := s.Slice(2, 6)
	if sub.String() != "0010" {
		t.Fatalf("Slice = %q, want 0010", sub.String())
	}
	if s.Slice(3, 3).Len() != 0 {
		t.Fatal("empty slice should have length 0")
	}
	full := s.Slice(0, s.Len())
	if !full.Equal(s) {
		t.Fatal("full slice differs from original")
	}
}

func TestConcat(t *testing.T) {
	a := MustFromString("101")
	b := MustFromString("01")
	c := Concat(a, b)
	if c.String() != "10101" {
		t.Fatalf("Concat = %q, want 10101", c.String())
	}
	if Concat().Len() != 0 {
		t.Fatal("Concat() should be empty")
	}
}

func TestAppendStream(t *testing.T) {
	a := MustFromString("11")
	a.AppendStream(MustFromString("00"))
	if a.String() != "1100" {
		t.Fatalf("AppendStream = %q, want 1100", a.String())
	}
}

func TestEqual(t *testing.T) {
	a := MustFromString("101")
	if a.Equal(MustFromString("1010")) {
		t.Fatal("Equal true for different lengths")
	}
	if !a.Equal(MustFromString("101")) {
		t.Fatal("Equal false for identical streams")
	}
	if a.Equal(MustFromString("100")) {
		t.Fatal("Equal true for different contents")
	}
}

func TestEqualIgnoresStaleHighBits(t *testing.T) {
	// Build two streams whose backing words differ only above Len.
	a := New(0)
	b := New(0)
	for i := 0; i < 70; i++ {
		a.Append(true)
		b.Append(true)
	}
	// Truncate conceptually by comparing slices of 65 bits.
	as := a.Slice(0, 65)
	bs := b.Slice(0, 65)
	if !as.Equal(bs) {
		t.Fatal("Equal affected by bits beyond Len")
	}
}

func TestIntAndOnesCount(t *testing.T) {
	s := MustFromString("0110")
	if s.Int(0) != 0 || s.Int(1) != 1 {
		t.Fatal("Int conversion wrong")
	}
	if s.OnesCount() != 2 {
		t.Fatalf("OnesCount = %d, want 2", s.OnesCount())
	}
}

func TestStringOutput(t *testing.T) {
	in := "1011001110001111"
	s := MustFromString(in)
	if s.String() != in {
		t.Fatalf("String = %q, want %q", s.String(), in)
	}
	if !strings.HasPrefix(s.String(), "10") {
		t.Fatal("unexpected prefix")
	}
}
