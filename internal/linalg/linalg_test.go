package linalg

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// The matrix helpers, Gaussian elimination and normal-equations least
// squares below are test references: the distiller solves by QR only, and
// qr_test.go checks LeastSquaresQR against LeastSquares.

// FromRows builds a matrix from row slices; all rows must share a length.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("linalg: row %d has %d columns, want %d", i, len(r), cols)
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns m·b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.Cols != b.Rows {
		return nil, fmt.Errorf("linalg: Mul shape mismatch (%dx%d)·(%dx%d)", m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += a * b.At(k, j)
			}
		}
	}
	return out, nil
}

// MulVec returns m·v as a slice.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if m.Cols != len(v) {
		return nil, fmt.Errorf("linalg: MulVec shape mismatch (%dx%d)·(%d)", m.Rows, m.Cols, len(v))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// Solve solves the square system a·x = b using Gaussian elimination with
// partial pivoting. a and b are not modified.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("linalg: Solve requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("linalg: Solve rhs length %d, want %d", len(b), n)
	}
	// Augmented working copy.
	aug := NewMatrix(n, n+1)
	for i := 0; i < n; i++ {
		copy(aug.Data[i*(n+1):i*(n+1)+n], a.Data[i*n:(i+1)*n])
		aug.Set(i, n, b[i])
	}
	for col := 0; col < n; col++ {
		// Partial pivoting: pick the largest |pivot| at or below the diagonal.
		p := col
		maxAbs := math.Abs(aug.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(aug.At(r, col)); v > maxAbs {
				maxAbs, p = v, r
			}
		}
		if maxAbs < 1e-300 {
			return nil, ErrSingular
		}
		if p != col {
			for j := col; j <= n; j++ {
				tmp := aug.At(col, j)
				aug.Set(col, j, aug.At(p, j))
				aug.Set(p, j, tmp)
			}
		}
		pivot := aug.At(col, col)
		for r := col + 1; r < n; r++ {
			f := aug.At(r, col) / pivot
			if f == 0 {
				continue
			}
			for j := col; j <= n; j++ {
				aug.Set(r, j, aug.At(r, j)-f*aug.At(col, j))
			}
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := aug.At(i, n)
		for j := i + 1; j < n; j++ {
			s -= aug.At(i, j) * x[j]
		}
		x[i] = s / aug.At(i, i)
	}
	return x, nil
}

// LeastSquares solves min‖a·x − b‖₂ via the normal equations
// (aᵀa)x = aᵀb. a must have at least as many rows as columns.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("linalg: LeastSquares underdetermined (%dx%d)", a.Rows, a.Cols)
	}
	if len(b) != a.Rows {
		return nil, fmt.Errorf("linalg: LeastSquares rhs length %d, want %d", len(b), a.Rows)
	}
	at := a.Transpose()
	ata, err := at.Mul(a)
	if err != nil {
		return nil, err
	}
	atb, err := at.MulVec(b)
	if err != nil {
		return nil, err
	}
	return Solve(ata, atb)
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 2 || m.Cols != 2 || m.At(1, 0) != 3 {
		t.Fatalf("FromRows built wrong matrix: %+v", m)
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("FromRows accepted ragged rows")
	}
	empty, err := FromRows(nil)
	if err != nil || empty.Rows != 0 {
		t.Fatal("FromRows(nil) should return empty matrix")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("Transpose shape %dx%d, want 3x2", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("Transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul (%d,%d) = %g, want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if _, err := a.Mul(NewMatrix(3, 2)); err == nil {
		t.Fatal("Mul accepted shape mismatch")
	}
}

func TestMulIdentity(t *testing.T) {
	a, _ := FromRows([][]float64{{2, -1, 0}, {1, 3, 5}, {0, 0, 1}})
	id := Identity(3)
	left, _ := id.Mul(a)
	right, _ := a.Mul(id)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if left.At(i, j) != a.At(i, j) || right.At(i, j) != a.At(i, j) {
				t.Fatalf("identity multiplication changed matrix at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 0, 2}, {0, 3, 0}})
	v, err := a.MulVec([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 7 || v[1] != 6 {
		t.Fatalf("MulVec = %v, want [7 6]", v)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Fatal("MulVec accepted wrong length")
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a, _ := FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := Solve(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Fatalf("Solve x = %v, want %v", x, want)
		}
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	// Leading zero on the diagonal forces a row swap.
	a, _ := FromRows([][]float64{
		{0, 1},
		{1, 0},
	})
	x, err := Solve(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("Solve with pivoting = %v, want [7 3]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a, _ := FromRows([][]float64{
		{1, 2},
		{2, 4},
	})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("Solve accepted singular matrix")
	}
}

func TestSolveShapeErrors(t *testing.T) {
	if _, err := Solve(NewMatrix(2, 3), []float64{1, 2}); err == nil {
		t.Fatal("Solve accepted non-square matrix")
	}
	if _, err := Solve(Identity(2), []float64{1}); err == nil {
		t.Fatal("Solve accepted wrong rhs length")
	}
}

func TestSolveRoundtripProperty(t *testing.T) {
	// For random well-conditioned systems, a·Solve(a, b) ≈ b.
	check := func(seed int64) bool {
		s := uint64(seed)
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(int64(s>>33))/float64(1<<30) - 1
		}
		const n = 5
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, next())
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonal dominance
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = next()
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		ax, err := a.MulVec(x)
		if err != nil {
			return false
		}
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLeastSquaresExactFit(t *testing.T) {
	// Overdetermined but consistent: y = 2x + 1 sampled at 4 points.
	a, _ := FromRows([][]float64{
		{1, 0},
		{1, 1},
		{1, 2},
		{1, 3},
	})
	y := []float64{1, 3, 5, 7}
	c, err := LeastSquares(a, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c[0]-1) > 1e-10 || math.Abs(c[1]-2) > 1e-10 {
		t.Fatalf("LeastSquares = %v, want [1 2]", c)
	}
}

func TestLeastSquaresMinimizesResidual(t *testing.T) {
	// Inconsistent system: solution should beat small perturbations.
	a, _ := FromRows([][]float64{
		{1, 0},
		{1, 1},
		{1, 2},
	})
	y := []float64{0, 1, 0}
	c, err := LeastSquares(a, y)
	if err != nil {
		t.Fatal(err)
	}
	resid := func(coef []float64) float64 {
		v, _ := a.MulVec(coef)
		var s float64
		for i := range v {
			d := v[i] - y[i]
			s += d * d
		}
		return s
	}
	base := resid(c)
	for _, d := range [][]float64{{0.01, 0}, {-0.01, 0}, {0, 0.01}, {0, -0.01}} {
		perturbed := []float64{c[0] + d[0], c[1] + d[1]}
		if resid(perturbed) < base-1e-12 {
			t.Fatalf("perturbation %v improved residual: %g < %g", d, resid(perturbed), base)
		}
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares(NewMatrix(2, 3), []float64{1, 2}); err == nil {
		t.Fatal("LeastSquares accepted underdetermined system")
	}
	if _, err := LeastSquares(NewMatrix(3, 2), []float64{1, 2}); err == nil {
		t.Fatal("LeastSquares accepted wrong rhs length")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Identity(2)
	b := a.Clone()
	b.Set(0, 0, 5)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestNewMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMatrix(-1, 2) did not panic")
		}
	}()
	NewMatrix(-1, 2)
}
