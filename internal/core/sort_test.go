package core

import (
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"ropuf/internal/rngx"
)

// idxSorter is the sort.Interface through which Case-2 once ordered a
// ring's stages with sort.Sort, kept as the reference order. sort.Sort is
// not stable: from 13 stages up it partitions, so it breaks ties in no
// fixed order, while at 12 and fewer it runs a stable insertion sort.
type idxSorter struct {
	idx  []int
	vals []float64
}

func (s *idxSorter) Len() int           { return len(s.idx) }
func (s *idxSorter) Less(a, b int) bool { return s.vals[s.idx[a]] < s.vals[s.idx[b]] }
func (s *idxSorter) Swap(a, b int)      { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

// identity returns 0, 1, …, n−1.
func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// oracleAscIdx is v's stage order under sort.Sort and idxSorter.
func oracleAscIdx(v []float64) []int {
	idx := identity(len(v))
	sort.Sort(&idxSorter{idx: idx, vals: v})
	return idx
}

// stableAscIdx is the stage order ascIdx promises: ascending delay, equal
// delays (−0 and +0 among them) by ascending stage index.
func stableAscIdx(v []float64) []int {
	idx := identity(len(v))
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	return idx
}

// insertionAscIdx is the typed, stable insertion sort through which ascIdx
// once ordered rings of up to 32 stages, kept as the reference for those
// sizes: an index moves left only past strictly larger values, so ties
// keep the ascending index order idx starts in.
func insertionAscIdx(v []float64) []int {
	idx := identity(len(v))
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

// usesNetwork reports whether ascIdx sends v through the sorting network.
func usesNetwork(v []float64) bool {
	var w [16]uint64
	return sortPacked16(&w, v)
}

// TestAscIdxMatchesSortOracle pins the stage order to the sort.Sort order
// it replaced on tie-free rings of every size through 16 and beyond, down
// both paths: picosecond rings (200 ± 5) go through the network up to 16
// stages, and rings that straddle zero take slices.SortFunc at every size.
// A tie-free ring has exactly one ascending order, so on such rings every
// selection, and with them every golden, is unchanged.
func TestAscIdxMatchesSortOracle(t *testing.T) {
	r := rngx.New(0x50B7)
	var idx []int
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 32, 33, 64, 256} {
		for _, mean := range []float64{200, 0} {
			network := mean != 0 && n <= 16
			v := make([]float64, n)
			for trial := 0; trial < 5000; trial++ {
				for i := range v {
					v[i] = mean + 5*r.Norm()
				}
				if mean == 0 && n > 1 { // make sure the ring straddles zero
					v[0], v[n-1] = -math.Abs(v[0]), math.Abs(v[n-1])
				}
				if got := usesNetwork(v); got != network && n > 1 {
					t.Fatalf("n=%d mean %g: network path %v, want %v\nv=%v", n, mean, got, network, v)
				}
				want := oracleAscIdx(v)
				for i := 1; i < n; i++ {
					if v[want[i-1]] == v[want[i]] {
						t.Fatalf("n=%d trial %d: ring has a tie; this battery needs tie-free rings", n, trial)
					}
				}
				if idx = ascIdx(idx, v); !slices.Equal(idx, want) {
					t.Fatalf("n=%d trial %d: ascIdx %v, sort.Sort %v\nv=%v", n, trial, idx, want, v)
				}
			}
		}
	}
}

// TestAscIdxTiesResolveByIndex pins the tie rule on tie-rich rings of
// 1–300 stages: equal delays keep ascending stage order, as
// sort.SliceStable keeps them. Rings drawn from {−0, +0, 1, 2, 3} mostly
// take slices.SortFunc (their keys differ in the top bits), those drawn
// from {−0, +0} or from {2, 3, 4} go through the network up to 16 stages.
// Up to 32 stages the order is also the insertion sort's that ascIdx ran
// before, and up to 12 what sort.Sort did, so short rings select exactly
// as before.
func TestAscIdxTiesResolveByIndex(t *testing.T) {
	r := rngx.New(0x71E5)
	negZero := math.Copysign(0, -1)
	var idx []int
	for _, set := range [][]float64{{negZero, 0, 1, 2, 3}, {negZero, 0}, {2, 3, 4}} {
		for n := 1; n <= 300; n++ {
			v := make([]float64, n)
			for trial := 0; trial < 10; trial++ {
				for i := range v {
					v[i] = set[r.Intn(len(set))]
				}
				idx = ascIdx(idx, v)
				if want := stableAscIdx(v); !slices.Equal(idx, want) {
					t.Fatalf("n=%d trial %d: ascIdx %v, stable order %v\nv=%v", n, trial, idx, want, v)
				}
				if n <= 32 {
					if want := insertionAscIdx(v); !slices.Equal(idx, want) {
						t.Fatalf("n=%d trial %d: ascIdx %v, insertion sort %v\nv=%v", n, trial, idx, want, v)
					}
				}
				if n <= 12 {
					if want := oracleAscIdx(v); !slices.Equal(idx, want) {
						t.Fatalf("n=%d trial %d: ascIdx %v, sort.Sort %v\nv=%v", n, trial, idx, want, v)
					}
				}
			}
		}
	}
}

// TestAscIdxNetworkExhaustive sorts, for every ring size 1–16, each of the
// 2^n rings of delays 200 and 201, 131,070 rings in all, and requires the
// network path and the stable order. Mapping the words of the 16-stage
// rings through a threshold between the two keys gives every one of the
// 2^16 0–1 inputs, so by the 0–1 principle (Knuth, TAOCP vol. 3, §5.3.4)
// the network sorts every input.
func TestAscIdxNetworkExhaustive(t *testing.T) {
	var idx []int
	for n := 1; n <= 16; n++ {
		v := make([]float64, n)
		for mask := 0; mask < 1<<n; mask++ {
			for i := range v {
				v[i] = 200 + float64(mask>>i&1)
			}
			if !usesNetwork(v) {
				t.Fatalf("n=%d mask %#x: the ring missed the network", n, mask)
			}
			if idx = ascIdx(idx, v); !slices.Equal(idx, stableAscIdx(v)) {
				t.Fatalf("n=%d mask %#x: ascIdx %v, stable order %v", n, mask, idx, stableAscIdx(v))
			}
		}
	}
}

// TestSortPacked16FourBitRule pins which rings the network takes: up to
// 16 stages whose keys share their top four bits. The others take
// slices.SortFunc; both paths must give the stable order.
func TestSortPacked16FourBitRule(t *testing.T) {
	negZero := math.Copysign(0, -1)
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 200 - float64(i%5)
		}
		return v
	}
	for _, tc := range []struct {
		name    string
		v       []float64
		network bool
	}{
		{"picoseconds", []float64{201, 199.5, 200, 199.5}, true},
		{"mixed signs", []float64{-1, 1}, false},
		{"negative", []float64{-200, -201, -199, -200}, true},
		{"both sides of 2", []float64{3.0, 1.5}, false},
		{"below 2", []float64{1.5, 0.75, 1.999, 1.5}, true},
		{"2 to just below 2^257", []float64{math.Ldexp(1, 257) - math.Ldexp(1, 204), 2, 3}, true},
		{"2 and 2^257", []float64{math.Ldexp(1, 257), 2}, false},
		{"2^-255 to just below 2", []float64{math.Nextafter(2, 0), math.Ldexp(1, -255)}, true},
		{"2^-256 and 1", []float64{1, math.Ldexp(1, -256)}, false},
		{"zeros", []float64{0, negZero, 0, negZero}, true},
		{"zero and a delay", []float64{200, 0, 199}, false},
		{"subnormals and zero", []float64{5e-324, negZero, 1e-310, 0, 5e-324}, true},
		{"subnormal and a delay", []float64{1.5, 5e-324}, false},
		{"max float64", []float64{math.MaxFloat64, math.MaxFloat64, math.Ldexp(1, 1020)}, true},
		{"-max float64", []float64{-math.MaxFloat64, -math.Ldexp(1, 1020), -math.MaxFloat64}, true},
		{"±max float64", []float64{math.MaxFloat64, -math.MaxFloat64}, false},
		{"16 stages", ramp(16), true},
		{"17 stages", ramp(17), false},
	} {
		if got := usesNetwork(tc.v); got != tc.network {
			t.Errorf("%s: network path %v, want %v", tc.name, got, tc.network)
		}
		if got, want := ascIdx(nil, tc.v), stableAscIdx(tc.v); !slices.Equal(got, want) {
			t.Errorf("%s: ascIdx %v, stable order %v", tc.name, got, want)
		}
	}
}

// TestSelectCase2LongestWireRing selects a descending pair of the longest
// ring the binary enroll wire carries (65,535 stages). An insertion sort of
// such a ring took seconds; slices.SortFunc's is O(n log n).
func TestSelectCase2LongestWireRing(t *testing.T) {
	const n = 65535
	alpha, beta := make([]float64, n), make([]float64, n)
	for i := range alpha {
		alpha[i] = float64(n - i)
		beta[i] = float64(n-i) + 0.5
	}
	start := time.Now()
	sel, err := SelectCase2(alpha, beta, Options{})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("a %d-stage Case-2 selection took %v, want under 1s", n, elapsed)
	}
	if err != nil {
		t.Fatal(err)
	}
	if sel.X.Ones() != sel.Y.Ones() || sel.X.Ones() == 0 || sel.Margin <= 0 {
		t.Fatalf("selection of %d/%d stages, margin %g", sel.X.Ones(), sel.Y.Ones(), sel.Margin)
	}
}
