// Package linalg implements the small dense linear algebra kernel the
// regression-based distiller needs: a row-major matrix and linear least
// squares by Householder QR.
//
// The matrices involved are tiny (the distiller fits at most a degree-4
// bivariate polynomial, i.e. 15 unknowns), so numerical simplicity is
// preferred over BLAS-style performance.
package linalg

import "errors"

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: append([]float64(nil), m.Data...)}
}

// ErrSingular is returned when a factorization meets a pivot that is
// numerically zero.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")
