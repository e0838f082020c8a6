package stats

import (
	"math"
	"testing"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.10g, want %.10g (tol %g)", name, got, want, tol)
	}
}

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		approx(t, "Mean", Mean(c.xs), c.want, 1e-12)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with divisor n-1: Σ(x−5)² = 32, 32/7.
	approx(t, "Variance", Variance(xs), 32.0/7.0, 1e-12)
	approx(t, "StdDev", StdDev(xs), math.Sqrt(32.0/7.0), 1e-12)
	if Variance([]float64{1}) != 0 {
		t.Error("Variance of single sample should be 0")
	}
}

func TestIgamcKnownValues(t *testing.T) {
	// Chi-squared survival values cross-checked against published tables:
	// P(χ²_k > x) = Igamc(k/2, x/2).
	cases := []struct {
		k    int
		x    float64
		want float64
	}{
		{1, 3.841, 0.05},
		{2, 5.991, 0.05},
		{5, 11.070, 0.05},
		{10, 18.307, 0.05},
		{9, 21.666, 0.01},
		{1, 0.00393, 0.95},
	}
	for _, c := range cases {
		got := Igamc(float64(c.k)/2, c.x/2)
		approx(t, "Igamc", got, c.want, 2e-4)
	}
}

func TestIgamIgamcComplementary(t *testing.T) {
	for _, a := range []float64{0.5, 1, 2.5, 7, 20} {
		for _, x := range []float64{0.1, 1, 3, 10, 40} {
			sum := Igam(a, x) + Igamc(a, x)
			approx(t, "Igam+Igamc", sum, 1, 1e-10)
		}
	}
}

func TestIgamcEdgeCases(t *testing.T) {
	if got := Igamc(1, 0); got != 1 {
		t.Errorf("Igamc(1,0) = %g, want 1", got)
	}
	if got := Igamc(0, 5); got != 1 {
		t.Errorf("Igamc(0,5) = %g, want 1 (invalid a treated as 1)", got)
	}
	if got := Igam(1, 0); got != 0 {
		t.Errorf("Igam(1,0) = %g, want 0", got)
	}
	// Igamc(1, x) = exp(-x) analytically.
	for _, x := range []float64{0.5, 1, 2, 5} {
		approx(t, "Igamc(1,x)=e^-x", Igamc(1, x), math.Exp(-x), 1e-12)
	}
	// Very large x underflows to 0.
	if got := Igamc(2, 1e6); got != 0 {
		t.Errorf("Igamc(2,1e6) = %g, want 0", got)
	}
}

func TestNormalCDF(t *testing.T) {
	approx(t, "Phi(0)", NormalCDF(0), 0.5, 1e-12)
	approx(t, "Phi(1.96)", NormalCDF(1.96), 0.975, 1e-4)
	approx(t, "Phi(-1.96)", NormalCDF(-1.96), 0.025, 1e-4)
	// Symmetry: Phi(x) + Phi(-x) = 1.
	for _, x := range []float64{0.1, 0.7, 2.3, 5} {
		approx(t, "Phi symmetry", NormalCDF(x)+NormalCDF(-x), 1, 1e-12)
	}
}

// TestErfc checks the complementary error function against a tabulated
// value, its symmetry, and its two identities with the other special
// functions: erfc(x) = 2·(1 − Φ(x√2)) and erfc(x) = Q(1/2, x²) for x ≥ 0.
func TestErfc(t *testing.T) {
	approx(t, "Erfc(0)", Erfc(0), 1, 0)
	approx(t, "Erfc(1)", Erfc(1), 0.157299207050285, 1e-14)
	for _, x := range []float64{0.05, 0.5, 1, 2.2, 4} {
		approx(t, "Erfc symmetry", Erfc(x)+Erfc(-x), 2, 1e-12)
		approx(t, "Erfc via Phi", Erfc(x), 2*(1-NormalCDF(x*math.Sqrt2)), 1e-12)
		approx(t, "Erfc via Igamc", Erfc(x), Igamc(0.5, x*x), 1e-10)
	}
}
