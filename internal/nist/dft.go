package nist

import (
	"fmt"
	"math"
	"math/cmplx"

	"ropuf/internal/bits"
	"ropuf/internal/stats"
)

// DFTTest returns the discrete Fourier transform (spectral) test (§2.6):
// periodic features in the sequence produce peaks above the 95% threshold.
func DFTTest() Test {
	return Test{
		Name:    "DFT",
		MinBits: 64,
		Run: func(s *bits.Stream) ([]PV, error) {
			n := s.Len()
			if n < 2 {
				return nil, fmt.Errorf("%w: dft needs at least 2 bits", ErrTooShort)
			}
			x := make([]complex128, n)
			for i := 0; i < n; i++ {
				x[i] = complex(float64(2*s.Int(i)-1), 0)
			}
			spec := FFT(x)
			half := n / 2
			threshold := math.Sqrt(math.Log(1/0.05) * float64(n))
			n0 := 0.95 * float64(half)
			n1 := 0
			for i := 0; i < half; i++ {
				if cmplx.Abs(spec[i]) < threshold {
					n1++
				}
			}
			d := (float64(n1) - n0) / math.Sqrt(float64(n)*0.95*0.05/4)
			p := stats.Erfc(math.Abs(d) / math.Sqrt2)
			return []PV{{P: p}}, nil
		},
	}
}

// FFT computes the discrete Fourier transform of x for any length:
// radix-2 Cooley–Tukey when the length is a power of two, Bluestein's
// chirp-z algorithm otherwise.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) == 0 {
		out := append([]complex128(nil), x...)
		fftPow2(out, false)
		return out
	}
	return bluestein(x)
}

// fftPow2 performs an in-place iterative radix-2 FFT. inverse selects the
// conjugate transform (unscaled).
func fftPow2(a []complex128, inverse bool) {
	n := len(a)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := cmplx.Exp(complex(0, ang))
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			for k := 0; k < length/2; k++ {
				u := a[start+k]
				v := a[start+k+length/2] * w
				a[start+k] = u + v
				a[start+k+length/2] = u - v
				w *= wl
			}
		}
	}
}

// bluestein computes an arbitrary-length DFT as a convolution, padding to a
// power of two.
func bluestein(x []complex128) []complex128 {
	n := len(x)
	m := 1
	for m < 2*n+1 {
		m <<= 1
	}
	// Chirp: w_k = exp(-i·π·k²/n). k² mod 2n keeps the argument bounded.
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		ang := -math.Pi * float64(kk) / float64(n)
		chirp[k] = cmplx.Exp(complex(0, ang))
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	fftPow2(a, false)
	fftPow2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	fftPow2(a, true)
	out := make([]complex128, n)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		out[k] = a[k] * scale * chirp[k]
	}
	return out
}
