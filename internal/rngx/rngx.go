// Package rngx provides a deterministic, splittable pseudo-random number
// generator used by every simulation in this repository.
//
// Reproducibility is a hard requirement: each dataset, each experiment and
// each benchmark must regenerate byte-identical results from a single seed.
// The standard library's math/rand/v2 offers good generators but no stable
// way to derive independent sub-streams from a parent seed, which the
// silicon simulator needs (one stream per board, per ring, per device).
// rngx implements xoshiro256** seeded through SplitMix64, with Split
// deriving statistically independent child generators.
package rngx

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256** generator. The zero value is not usable; construct
// with New or Split.
type RNG struct {
	s         [4]uint64
	spare     float64 // cached second variate from the polar method
	haveSpare bool
}

// splitmix64 advances the state and returns the next output. It is used
// both for seeding xoshiro and for deriving child seeds in Split.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator deterministically seeded from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start at the all-zero state; splitmix64 cannot emit
	// four consecutive zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// next is one xoshiro256** step on the state held as values: it returns
// the output and the state after it. Uint64 and fillPairs both step
// through it; it inlines, so fillPairs keeps the state in registers.
func next(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return out, s0, s1, s2, s3
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	out, s0, s1, s2, s3 := next(r.s[0], r.s[1], r.s[2], r.s[3])
	r.s = [4]uint64{s0, s1, s2, s3}
	return out
}

// Split derives an independent child generator. The child's seed is drawn
// from the parent, so sibling order matters but siblings do not share state.
func (r *RNG) Split() *RNG {
	return New(r.SplitSeed())
}

// SplitSeed draws the seed Split would hand to the child without
// constructing it: New(r.SplitSeed()) is state-identical to r.Split().
// Parallel generators use it to derive per-job child seeds serially in
// dispatch order — one u64 per job instead of one live RNG — so workers
// can reconstruct the exact serial sub-stream on another goroutine.
func (r *RNG) SplitSeed() uint64 {
	return r.Uint64()
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 { return unit(r.Uint64()) }

// unit maps 64 random bits to Float64's value; fillPairs converts its
// draws through it too.
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rngx: Intn with non-positive n")
	}
	bound := uint64(n)
	limit := -bound % bound // 2^64 mod n
	for {
		v := r.Uint64()
		if v >= limit {
			return int(v % bound)
		}
	}
}

// Bool returns a uniformly random boolean.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// polar runs one accepted round of the Marsaglia polar method and returns
// the two resulting independent standard normal variates in draw order.
func (r *RNG) polar() (first, second float64) {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			f := polarFactor(s)
			return u * f, v * f
		}
	}
}

// polarFactor is the factor sqrt(−2·ln s / s) of an accepted polar
// candidate s. polar and polarFactors share it, so their values agree bit
// for bit.
func polarFactor(s float64) float64 { return math.Sqrt(-2 * math.Log(s) / s) }

// polarFactors replaces each accepted candidate in ss by its factor.
func polarFactors(ss []float64) {
	for i, s := range ss {
		ss[i] = polarFactor(s)
	}
}

// Norm returns a standard normal variate (mean 0, stddev 1) using the
// Marsaglia polar method. Two variates are produced per round; the spare is
// cached.
func (r *RNG) Norm() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	first, second := r.polar()
	r.spare = second
	r.haveSpare = true
	return first
}

// NormMeanStd returns a normal variate with the given mean and stddev.
func (r *RNG) NormMeanStd(mean, std float64) float64 {
	return mean + std*r.Norm()
}

// NormFill fills dst with independent normal variates of the given mean and
// stddev. The generator state after the call — and every value written — is
// bit-identical to len(dst) sequential NormMeanStd calls, each value being
// mean + std*(u*f) for the polar pair (u, v) and its factor f.
//
// A fill of at least 8 values (normFillMin) works in chunks of up to 64
// pairs (normChunk), in two phases. The first draws the chunk's polar
// candidates with the generator's four state words in locals and keeps
// the accepted ones without a branch on the draw, in draw order, so the
// draws and the end state are those of the scalar loop. The second turns
// every accepted s into its factor and writes the pair, so the
// unpredictable accept test never waits on a logarithm. A shorter fill,
// and the odd value that leaves a spare, run the scalar polar loop.
func (r *RNG) NormFill(dst []float64, mean, std float64) {
	i := 0
	if r.haveSpare && len(dst) > 0 {
		r.haveSpare = false
		dst[0] = mean + std*r.spare
		i = 1
	}
	if len(dst)-i >= normFillMin {
		pairs := (len(dst) - i) / 2
		r.fillPairs(dst[i:i+2*pairs], mean, std)
		i += 2 * pairs
	}
	for ; i+1 < len(dst); i += 2 {
		first, second := r.polar()
		dst[i] = mean + std*first
		dst[i+1] = mean + std*second
	}
	if i < len(dst) {
		first, second := r.polar()
		dst[i] = mean + std*first
		r.spare = second
		r.haveSpare = true
	}
}

const (
	// normChunk is the number of polar pairs fillPairs draws before it
	// turns their candidates into factors.
	normChunk = 64
	// normFillMin is the shortest fill that takes the chunked path; below
	// it the set-up of a chunk costs more than the scalar loop it saves.
	normFillMin = 8
)

// fillPairs writes len(dst)/2 polar pairs to dst (len(dst) is even), each
// pair as mean + std*(u*f), mean + std*(v*f). The candidates' u and v wait
// in dst itself until their factors are known.
func (r *RNG) fillPairs(dst []float64, mean, std float64) {
	var ss [normChunk]float64
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for len(dst) > 0 {
		want := min(len(dst)/2, normChunk)
		n := 0
		for n < want {
			var a, b uint64
			a, s0, s1, s2, s3 = next(s0, s1, s2, s3)
			b, s0, s1, s2, s3 = next(s0, s1, s2, s3)
			u := 2*unit(a) - 1
			v := 2*unit(b) - 1
			s := u*u + v*v
			dst[2*n], dst[2*n+1], ss[n] = u, v, s
			// s is never negative or NaN, so 0 < s < 1 exactly when its
			// bits minus one fall below those of the largest double
			// under 1; the borrow of that subtraction is the verdict.
			_, accept := bits.Sub64(math.Float64bits(s)-1, 0x3FEFFFFFFFFFFFFF, 0)
			n += int(accept)
		}
		// The factors take a pass of their own: math.Log is a call, and
		// the output loop's values then need no spill around it.
		polarFactors(ss[:n])
		for j, f := range ss[:n] {
			dst[2*j] = mean + std*(dst[2*j]*f)
			dst[2*j+1] = mean + std*(dst[2*j+1]*f)
		}
		dst = dst[2*n:]
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
