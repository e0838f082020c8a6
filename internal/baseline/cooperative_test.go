package baseline

import (
	"testing"

	"ropuf/internal/rngx"
)

func TestCooperativeKeepsStablePairs(t *testing.T) {
	// Pair 0 stable (10 > 5 everywhere); pair 1 flips at corner 1.
	corners := [][]float64{
		{10, 5, 7, 8},
		{11, 6, 9, 8.5},
		{12, 7, 7.2, 8.1},
	}
	e, err := EnrollCooperative(corners)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Mask[0] {
		t.Fatal("stable pair dropped")
	}
	if e.Mask[1] {
		t.Fatal("unstable pair kept")
	}
	if e.Response.Len() != 1 || !e.Response.Bit(0) {
		t.Fatalf("response = %s, want single 1", e.Response)
	}
	if len(e.Mask) != 2 {
		t.Fatalf("mask covers %d pairs, want 2", len(e.Mask))
	}
}

func TestCooperativeSingleCornerKeepsAll(t *testing.T) {
	e, err := EnrollCooperative([][]float64{{3, 1, 2, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if e.Response.Len() != 2 {
		t.Fatalf("bits = %d, want 2", e.Response.Len())
	}
	if e.Response.String() != "10" {
		t.Fatalf("response = %s, want 10", e.Response)
	}
}

func TestCooperativeDropsTies(t *testing.T) {
	e, err := EnrollCooperative([][]float64{{5, 5, 3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if e.Mask[0] {
		t.Fatal("tied pair kept")
	}
	if e.Response.Len() != 1 {
		t.Fatalf("bits = %d, want 1", e.Response.Len())
	}
}

func TestCooperativeValidation(t *testing.T) {
	if _, err := EnrollCooperative(nil); err == nil {
		t.Fatal("empty corner list accepted")
	}
	if _, err := EnrollCooperative([][]float64{{1}}); err == nil {
		t.Fatal("single RO accepted")
	}
	if _, err := EnrollCooperative([][]float64{{1, 2}, {1, 2, 3}}); err == nil {
		t.Fatal("ragged corners accepted")
	}
	// All pairs unstable → error.
	if _, err := EnrollCooperative([][]float64{{1, 2}, {2, 1}}); err == nil {
		t.Fatal("zero stable pairs accepted")
	}
}

func TestCooperativeEvaluate(t *testing.T) {
	corners := [][]float64{{10, 5, 7, 8}, {11, 6, 9, 8.5}}
	e, err := EnrollCooperative(corners)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.Evaluate(corners[0])
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Equal(e.Response) {
		t.Fatal("re-evaluation at the reference corner changed bits")
	}
	if _, err := e.Evaluate([]float64{1, 2, 3, 4, 5, 6}); err == nil {
		t.Fatal("wrong RO count accepted")
	}
}

func TestCooperativeBeatsWorstCaseThreshold(t *testing.T) {
	// On random delays with corner perturbations, cooperative enrollment
	// keeps more pairs than a worst-case threshold tuned for the same
	// stability, because it tests stability directly.
	r := rngx.New(9)
	const nROs = 256
	base := make([]float64, nROs)
	for i := range base {
		base[i] = 10000 + 50*r.Norm()
	}
	corners := [][]float64{base}
	for c := 0; c < 4; c++ {
		shift := make([]float64, nROs)
		for i := range shift {
			shift[i] = base[i]*1.1 + 15*r.Norm()
		}
		corners = append(corners, shift)
	}
	coop, err := EnrollCooperative(corners)
	if err != nil {
		t.Fatal(err)
	}
	// Worst-case threshold needs margin > max perturbation ≈ 4σ·√2 ≈ 85.
	trad, err := EnrollTraditional(base, 85)
	if err != nil {
		t.Fatal(err)
	}
	if coop.Response.Len() <= trad.Response.Len() {
		t.Fatalf("cooperative %d bits not above worst-case-threshold %d bits",
			coop.Response.Len(), trad.Response.Len())
	}
}
