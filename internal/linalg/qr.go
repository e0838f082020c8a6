package linalg

import (
	"fmt"
	"math"
)

// Householder QR decomposition and a QR-based least-squares solver.
//
// The normal equations (AᵀA)x = Aᵀb square the condition number of the
// design matrix; for the distiller's low-degree fits on normalized
// coordinates that is harmless, but high-degree polynomial bases or raw
// (unnormalized) coordinates can push AᵀA toward singularity. QR factors A
// directly, keeping the conditioning of the original problem.

// QR holds the compact Householder factorization of an m×n matrix (m >= n):
// R in the upper triangle of qr, each reflector's tail (v_i, i > k) below
// the diagonal of column k, the head v₀ and scale β per column alongside.
type QR struct {
	qr   *Matrix
	v0   []float64
	beta []float64
}

// DecomposeQR computes the Householder QR factorization of a (m >= n).
// a is not modified. A numerically rank-deficient matrix yields
// ErrSingular.
func DecomposeQR(a *Matrix) (*QR, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, fmt.Errorf("linalg: QR requires rows >= cols, got %dx%d", m, n)
	}
	if n == 0 {
		return nil, fmt.Errorf("linalg: QR of empty matrix")
	}
	w := a.Clone()
	v0 := make([]float64, n)
	beta := make([]float64, n)
	// Scale reference for rank detection: the largest column norm of a.
	var scale float64
	for j := 0; j < n; j++ {
		var s float64
		for i := 0; i < m; i++ {
			s += a.At(i, j) * a.At(i, j)
		}
		scale = math.Max(scale, math.Sqrt(s))
	}
	if scale == 0 {
		return nil, ErrSingular
	}
	for k := 0; k < n; k++ {
		var norm float64
		for i := k; i < m; i++ {
			norm += w.At(i, k) * w.At(i, k)
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12*scale {
			return nil, ErrSingular
		}
		alpha := -math.Copysign(norm, w.At(k, k))
		head := w.At(k, k) - alpha
		w.Set(k, k, alpha) // R's diagonal entry
		v0[k] = head
		vNorm2 := head * head
		for i := k + 1; i < m; i++ {
			vNorm2 += w.At(i, k) * w.At(i, k)
		}
		if vNorm2 == 0 {
			beta[k] = 0
			continue
		}
		beta[k] = 2 / vNorm2
		for j := k + 1; j < n; j++ {
			dot := head * w.At(k, j)
			for i := k + 1; i < m; i++ {
				dot += w.At(i, k) * w.At(i, j)
			}
			f := beta[k] * dot
			w.Set(k, j, w.At(k, j)-f*head)
			for i := k + 1; i < m; i++ {
				w.Set(i, j, w.At(i, j)-f*w.At(i, k))
			}
		}
	}
	return &QR{qr: w, v0: v0, beta: beta}, nil
}

// SolveLS returns the least-squares solution argmin‖a·x − b‖₂ for the
// factored matrix.
func (q *QR) SolveLS(b []float64) ([]float64, error) {
	m, n := q.qr.Rows, q.qr.Cols
	if len(b) != m {
		return nil, fmt.Errorf("linalg: QR rhs length %d, want %d", len(b), m)
	}
	y := append([]float64(nil), b...)
	// Apply Qᵀ: reflectors in factorization order.
	for k := 0; k < n; k++ {
		if q.beta[k] == 0 {
			continue
		}
		dot := q.v0[k] * y[k]
		for i := k + 1; i < m; i++ {
			dot += q.qr.At(i, k) * y[i]
		}
		f := q.beta[k] * dot
		y[k] -= f * q.v0[k]
		for i := k + 1; i < m; i++ {
			y[i] -= f * q.qr.At(i, k)
		}
	}
	// Back substitution on R.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= q.qr.At(i, j) * x[j]
		}
		d := q.qr.At(i, i)
		if math.Abs(d) < 1e-300 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// LeastSquaresQR solves min‖a·x − b‖₂ via Householder QR — numerically
// preferable to the normal equations when a is ill-conditioned.
func LeastSquaresQR(a *Matrix, b []float64) ([]float64, error) {
	q, err := DecomposeQR(a)
	if err != nil {
		return nil, err
	}
	return q.SolveLS(b)
}
