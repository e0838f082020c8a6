package core

import (
	"slices"

	"ropuf/internal/circuit"
)

// Scratch holds reusable buffers for repeated selections and enrollments.
// The fleet enrollment hot path processes hundreds of thousands of pairs;
// with a per-worker Scratch the sort/index scratch is reused across devices
// and every configuration vector is carved out of a shared arena instead of
// allocated per pair, cutting the allocation count per enrolled device from
// O(pairs) to O(1).
//
// The zero value is ready to use. A Scratch is not safe for concurrent use;
// give each worker its own.
type Scratch struct {
	aIdx, bIdx []int
	arena      []bool
}

// arenaBlockBools sizes fresh arena blocks: big enough that a typical
// device's worth of configuration vectors fits in one allocation.
const arenaBlockBools = 2048

// config carves one zeroed n-bool configuration vector out of the arena.
// Handed-out vectors escape into Enrollment results, so the arena is never
// rewound — it only grows by allocating fresh (zeroed) blocks once the
// current block is exhausted.
func (s *Scratch) config(n int) circuit.Config {
	if cap(s.arena)-len(s.arena) < n {
		block := arenaBlockBools
		if n > block {
			block = n
		}
		s.arena = make([]bool, 0, block)
	}
	base := len(s.arena)
	s.arena = s.arena[:base+n]
	// Full-slice expression: the handed-out config's capacity ends at its
	// own length, so appends copy out instead of growing into the arena.
	return circuit.Config(s.arena[base : base+n : base+n])
}

// insertionSortMaxStages is the longest ring ascIdx sorts by insertion.
// The paper's rings have 13–15 stages, one above the 12 elements below
// which the standard library's pdqsort already uses insertion sort, so a
// generic sort spent most of an enrollment partitioning. Insertion sort is
// quadratic, though, and the binary enroll wire admits 65,535 stages per
// ring, selected under a shard lock: longer rings take slices.SortFunc.
const insertionSortMaxStages = 32

// ascIdx fills idx (reusing its capacity) with the indices of v sorted by
// ascending value, equal values by ascending index, and returns it. Both
// sort paths produce that one order.
func ascIdx(idx []int, v []float64) []int {
	if cap(idx) < len(v) {
		idx = make([]int, len(v))
	}
	idx = idx[:len(v)]
	for i := range idx {
		idx[i] = i
	}
	if len(v) > insertionSortMaxStages {
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
	// Stable insertion: an index moves left only past strictly larger
	// values, so ties keep the ascending index order idx starts in.
	for i := 1; i < len(idx); i++ {
		x, vx := idx[i], v[idx[i]]
		j := i
		for ; j > 0 && v[idx[j-1]] > vx; j-- {
			idx[j] = idx[j-1]
		}
		idx[j] = x
	}
	return idx
}
