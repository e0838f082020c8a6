package metrics

import (
	"math"
	"testing"

	"ropuf/internal/bits"
)

func TestInterChipHDKnown(t *testing.T) {
	resp := []*bits.Stream{
		bits.MustFromString("0000"),
		bits.MustFromString("1111"),
		bits.MustFromString("0011"),
	}
	hd, err := ComputeInterChipHD(resp)
	if err != nil {
		t.Fatal(err)
	}
	if hd.NumPairs != 3 {
		t.Fatalf("NumPairs = %d, want 3", hd.NumPairs)
	}
	// Distances: 4, 2, 2 → mean 8/3.
	if math.Abs(hd.Mean-8.0/3.0) > 1e-12 {
		t.Fatalf("Mean = %g, want %g", hd.Mean, 8.0/3.0)
	}
	if hd.Hist.Counts[4] != 1 || hd.Hist.Counts[2] != 2 {
		t.Fatalf("histogram wrong: %v", hd.Hist.Counts)
	}
	wantU := 100 * (8.0 / 3.0) / 4
	if math.Abs(hd.UniquenessPercent()-wantU) > 1e-9 {
		t.Fatalf("Uniqueness = %g, want %g", hd.UniquenessPercent(), wantU)
	}
}

func TestInterChipHDValidation(t *testing.T) {
	if _, err := ComputeInterChipHD(nil); err == nil {
		t.Fatal("accepted empty input")
	}
	if _, err := ComputeInterChipHD([]*bits.Stream{bits.MustFromString("01")}); err == nil {
		t.Fatal("accepted single response")
	}
	resp := []*bits.Stream{bits.MustFromString("01"), bits.MustFromString("011")}
	if _, err := ComputeInterChipHD(resp); err == nil {
		t.Fatal("accepted mismatched lengths")
	}
}

func TestReliabilityCounting(t *testing.T) {
	enrolled := bits.MustFromString("10101010")
	regen := []*bits.Stream{
		bits.MustFromString("10101010"), // identical
		bits.MustFromString("00101010"), // flip at 0
		bits.MustFromString("00101011"), // flips at 0 and 7
	}
	r, err := ComputeReliability(enrolled, regen)
	if err != nil {
		t.Fatal(err)
	}
	if r.Flips != 3 {
		t.Fatalf("Flips = %d, want 3", r.Flips)
	}
	if r.FlippedPositions != 2 {
		t.Fatalf("FlippedPositions = %d, want 2", r.FlippedPositions)
	}
	if r.TotalBits != 24 {
		t.Fatalf("TotalBits = %d, want 24", r.TotalBits)
	}
	if math.Abs(r.FlippedPositionPercent()-25) > 1e-12 {
		t.Fatalf("FlippedPositionPercent = %g, want 25", r.FlippedPositionPercent())
	}
}

func TestReliabilityValidation(t *testing.T) {
	if _, err := ComputeReliability(bits.New(0), nil); err == nil {
		t.Fatal("accepted empty enrollment")
	}
	enrolled := bits.MustFromString("101")
	if _, err := ComputeReliability(enrolled, []*bits.Stream{bits.MustFromString("10")}); err == nil {
		t.Fatal("accepted length mismatch")
	}
}

func TestReliabilityNoRegenerations(t *testing.T) {
	r, err := ComputeReliability(bits.MustFromString("1100"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Flips != 0 || r.FlippedPositionPercent() != 0 {
		t.Fatal("no regenerations should mean zero flip rates")
	}
}

// TestPercentagesOfZeroLengthResponses keeps a scheme that yielded no bits
// printable: both percentages read 0 rather than NaN.
func TestPercentagesOfZeroLengthResponses(t *testing.T) {
	if got := (&InterChipHD{}).UniquenessPercent(); got != 0 {
		t.Errorf("UniquenessPercent with no bits = %g, want 0", got)
	}
	if got := (&Reliability{}).FlippedPositionPercent(); got != 0 {
		t.Errorf("FlippedPositionPercent with no bits = %g, want 0", got)
	}
}

func TestHardwareUtilization(t *testing.T) {
	u, err := HardwareUtilization(48, 512)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u-48.0/256.0) > 1e-12 {
		t.Fatalf("utilization = %g", u)
	}
	if _, err := HardwareUtilization(1, 0); err == nil {
		t.Fatal("accepted zero ROs")
	}
	if _, err := HardwareUtilization(-1, 8); err == nil {
		t.Fatal("accepted negative bits")
	}
}
