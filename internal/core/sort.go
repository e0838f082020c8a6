package core

import (
	"math"
	"slices"
)

// ascIdx fills idx (reusing its capacity) with the indices of v sorted by
// ascending value, equal values (−0 and +0 among them) by ascending index,
// and returns it. A ring of up to 16 stages whose delay keys share their
// top four bits goes through sortPacked16's network; every other ring
// takes slices.SortFunc. Both give that one order.
func ascIdx(idx []int, v []float64) []int {
	if cap(idx) < len(v) {
		idx = make([]int, len(v))
	}
	idx = idx[:len(v)]
	var w [16]uint64
	if sortPacked16(&w, v) {
		for i := range idx {
			idx[i] = int(w[i] & 15)
		}
		return idx
	}
	for i := range idx {
		idx[i] = i
	}
	// Selection rejects NaN delays first, so < and > order every pair.
	slices.SortFunc(idx, func(a, b int) int {
		switch va, vb := v[a], v[b]; {
		case va < vb:
			return -1
		case va > vb:
			return 1
		}
		return a - b
	})
	return idx
}

// sortPacked16 sorts the stages of v into w without a branch on any delay
// and reports whether it could. Each word is a stage's order-preserving
// delay key shifted left four bits over the stage's index, so after the
// sort the low four bits of w[0:len(v)] are the stage order, equal delays
// by ascending index. The shift drops the key's top four bits, so it sorts
// only a ring of at most 16 stages whose keys all share them: every delay
// in [2, 2^257), which covers a ring of picosecond delays, or every one in
// [2^−255, 2), among others. For any other ring (mixed signs, delays on
// both sides of 2, more than 16 stages) it reports false and leaves w
// unspecified. v must hold no NaN.
func sortPacked16(w *[16]uint64, v []float64) bool {
	if len(v) > len(w) {
		return false
	}
	and, or := ^uint64(0), uint64(0)
	for i, x := range v {
		// + 0 turns −0 into +0. Flipping the sign bit of a non-negative
		// delay and every bit of a negative one orders the keys as the
		// delays are ordered.
		k := math.Float64bits(x + 0)
		k ^= uint64(int64(k)>>63) | 1<<63
		and &= k
		or |= k
		w[i] = k<<4 | uint64(i)
	}
	if (and^or)>>60 != 0 {
		return false
	}
	for i := len(v); i < len(w); i++ {
		w[i] = ^uint64(0) // sorts last: a shorter ring has no stage index 15
	}
	sort16(w)
	return true
}

// sort16 sorts w through Green's 16-input network (D. E. Knuth, The Art of
// Computer Programming, vol. 3, §5.3.4, Fig. 49): 60 compare-exchanges in
// 10 layers, one group of lines each below, against 63 for Batcher's
// odd–even merge sort (K. E. Batcher, Sorting networks and their
// applications, AFIPS SJCC 1968). Which pairs it compares never depends on
// the data, and each compare-exchange of two uint64s compiles to two
// conditional moves, so a ring's sort has no branch to mispredict. It is
// unrolled over locals: a loop over a comparator table kept the words in
// memory and took four to six times as long.
func sort16(w *[16]uint64) {
	k0, k1, k2, k3, k4, k5, k6, k7 := w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]
	k8, k9, k10, k11, k12, k13, k14, k15 := w[8], w[9], w[10], w[11], w[12], w[13], w[14], w[15]

	k0, k1 = min(k0, k1), max(k0, k1)
	k2, k3 = min(k2, k3), max(k2, k3)
	k4, k5 = min(k4, k5), max(k4, k5)
	k6, k7 = min(k6, k7), max(k6, k7)
	k8, k9 = min(k8, k9), max(k8, k9)
	k10, k11 = min(k10, k11), max(k10, k11)
	k12, k13 = min(k12, k13), max(k12, k13)
	k14, k15 = min(k14, k15), max(k14, k15)

	k0, k2 = min(k0, k2), max(k0, k2)
	k1, k3 = min(k1, k3), max(k1, k3)
	k4, k6 = min(k4, k6), max(k4, k6)
	k5, k7 = min(k5, k7), max(k5, k7)
	k8, k10 = min(k8, k10), max(k8, k10)
	k9, k11 = min(k9, k11), max(k9, k11)
	k12, k14 = min(k12, k14), max(k12, k14)
	k13, k15 = min(k13, k15), max(k13, k15)

	k0, k4 = min(k0, k4), max(k0, k4)
	k1, k5 = min(k1, k5), max(k1, k5)
	k2, k6 = min(k2, k6), max(k2, k6)
	k3, k7 = min(k3, k7), max(k3, k7)
	k8, k12 = min(k8, k12), max(k8, k12)
	k9, k13 = min(k9, k13), max(k9, k13)
	k10, k14 = min(k10, k14), max(k10, k14)
	k11, k15 = min(k11, k15), max(k11, k15)

	k0, k8 = min(k0, k8), max(k0, k8)
	k1, k9 = min(k1, k9), max(k1, k9)
	k2, k10 = min(k2, k10), max(k2, k10)
	k3, k11 = min(k3, k11), max(k3, k11)
	k4, k12 = min(k4, k12), max(k4, k12)
	k5, k13 = min(k5, k13), max(k5, k13)
	k6, k14 = min(k6, k14), max(k6, k14)
	k7, k15 = min(k7, k15), max(k7, k15)

	k5, k10 = min(k5, k10), max(k5, k10)
	k6, k9 = min(k6, k9), max(k6, k9)
	k3, k12 = min(k3, k12), max(k3, k12)
	k13, k14 = min(k13, k14), max(k13, k14)
	k7, k11 = min(k7, k11), max(k7, k11)
	k1, k2 = min(k1, k2), max(k1, k2)
	k4, k8 = min(k4, k8), max(k4, k8)

	k1, k4 = min(k1, k4), max(k1, k4)
	k7, k13 = min(k7, k13), max(k7, k13)
	k2, k8 = min(k2, k8), max(k2, k8)
	k11, k14 = min(k11, k14), max(k11, k14)
	k5, k6 = min(k5, k6), max(k5, k6)
	k9, k10 = min(k9, k10), max(k9, k10)

	k2, k4 = min(k2, k4), max(k2, k4)
	k11, k13 = min(k11, k13), max(k11, k13)
	k3, k8 = min(k3, k8), max(k3, k8)
	k7, k12 = min(k7, k12), max(k7, k12)

	k6, k8 = min(k6, k8), max(k6, k8)
	k10, k12 = min(k10, k12), max(k10, k12)
	k3, k5 = min(k3, k5), max(k3, k5)
	k7, k9 = min(k7, k9), max(k7, k9)

	k3, k4 = min(k3, k4), max(k3, k4)
	k5, k6 = min(k5, k6), max(k5, k6)
	k7, k8 = min(k7, k8), max(k7, k8)
	k9, k10 = min(k9, k10), max(k9, k10)
	k11, k12 = min(k11, k12), max(k11, k12)

	k6, k7 = min(k6, k7), max(k6, k7)
	k8, k9 = min(k8, k9), max(k8, k9)
	w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7] = k0, k1, k2, k3, k4, k5, k6, k7
	w[8], w[9], w[10], w[11], w[12], w[13], w[14], w[15] = k8, k9, k10, k11, k12, k13, k14, k15
}
