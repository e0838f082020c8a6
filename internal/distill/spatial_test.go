package distill

import (
	"math"
	"testing"

	"ropuf/internal/rngx"
)

func TestMoransISmoothSurfaceHigh(t *testing.T) {
	f := func(x, y int) float64 { return float64(x) + float64(y) }
	xs, ys, vals := gridSamples(12, 12, f)
	i, err := MoransI(xs, ys, vals, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if i < 0.8 {
		t.Fatalf("Moran's I = %.3f for a smooth gradient, want near 1", i)
	}
}

func TestMoransIRandomNearNull(t *testing.T) {
	r := rngx.New(1)
	f := func(x, y int) float64 { return r.Norm() }
	xs, ys, vals := gridSamples(16, 16, f)
	i, err := MoransI(xs, ys, vals, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	null := ExpectedMoransINull(len(vals))
	if math.Abs(i-null) > 0.1 {
		t.Fatalf("Moran's I = %.3f for iid noise, want ~%.4f", i, null)
	}
}

func TestMoransICheckerboardNegative(t *testing.T) {
	f := func(x, y int) float64 {
		if (x+y)%2 == 0 {
			return 1
		}
		return -1
	}
	xs, ys, vals := gridSamples(10, 10, f)
	i, err := MoransI(xs, ys, vals, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if i > -0.8 {
		t.Fatalf("Moran's I = %.3f for a checkerboard, want near -1", i)
	}
}

func TestMoransIDistillationKillsAutocorrelation(t *testing.T) {
	r := rngx.New(2)
	f := func(x, y int) float64 {
		fx, fy := float64(x), float64(y)
		return 100 + 3*fx - 2*fy + 0.2*fx*fx + r.Norm()
	}
	xs, ys, vals := gridSamples(16, 16, f)
	rawI, err := MoransI(xs, ys, vals, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := New(2)
	res, err := d.Apply(xs, ys, vals)
	if err != nil {
		t.Fatal(err)
	}
	resI, err := MoransI(xs, ys, res, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if rawI < 0.5 {
		t.Fatalf("raw Moran's I = %.3f, systematic component too weak for the test", rawI)
	}
	if math.Abs(resI) > 0.1 {
		t.Fatalf("distilled Moran's I = %.3f, spatial structure survived", resI)
	}
}

func TestMoransIValidation(t *testing.T) {
	if _, err := MoransI([]int{1}, []int{1, 2}, []float64{1}, 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := MoransI([]int{1, 2}, []int{1, 2}, []float64{1, 2}, 1); err == nil {
		t.Fatal("too few samples accepted")
	}
	xs, ys, vals := gridSamples(4, 4, func(x, y int) float64 { return float64(x) })
	if _, err := MoransI(xs, ys, vals, 0); err == nil {
		t.Fatal("zero radius accepted")
	}
	if _, err := MoransI(xs, ys, vals, 0.5); err == nil {
		t.Fatal("radius below grid spacing should find no neighbours")
	}
	constVals := make([]float64, len(vals))
	if _, err := MoransI(xs, ys, constVals, 1.5); err == nil {
		t.Fatal("constant values accepted")
	}
}

func TestExpectedMoransINull(t *testing.T) {
	if got := ExpectedMoransINull(11); math.Abs(got+0.1) > 1e-12 {
		t.Fatalf("null expectation = %g, want -0.1", got)
	}
	if ExpectedMoransINull(1) != 0 {
		t.Fatal("degenerate n should return 0")
	}
}
