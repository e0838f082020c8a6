package core

import (
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"ropuf/internal/rngx"
)

func randVec(r *rngx.RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 200 + 5*r.Norm()
	}
	return v
}

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

func selectionsEqual(a, b Selection) bool {
	if a.Margin != b.Margin || a.Bit != b.Bit || len(a.X) != len(b.X) || len(a.Y) != len(b.Y) {
		return false
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			return false
		}
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			return false
		}
	}
	return true
}

// TestScratchSelectionMatchesPlain runs the scratch-backed selection paths
// with one long-lived Scratch against the public entry points (fresh
// buffers each call) over random inputs, modes, and options. Results must
// be identical — buffer reuse is invisible to the algorithm.
func TestScratchSelectionMatchesPlain(t *testing.T) {
	r := rngx.New(0x5C)
	var sc Scratch
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(24)
		alpha := randVec(r, n)
		beta := randVec(r, n)
		opt := Options{RequireOddStages: trial%2 == 0}
		for _, mode := range []Mode{Case1, Case2} {
			want, errWant := Select(mode, alpha, beta, opt)
			got, errGot := selectWith(mode, alpha, beta, opt, &sc)
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("trial %d %v: error mismatch: %v vs %v", trial, mode, errWant, errGot)
			}
			if errWant != nil {
				continue
			}
			if !selectionsEqual(want, got) {
				t.Fatalf("trial %d %v odd=%v: scratch selection diverged:\n got X=%s Y=%s margin=%g\nwant X=%s Y=%s margin=%g",
					trial, mode, opt.RequireOddStages, got.X, got.Y, got.Margin, want.X, want.Y, want.Margin)
			}
		}
	}
}

// TestScratchConfigsIndependent verifies configuration vectors carved from a
// shared Scratch arena never alias: mutating one selection's vectors must
// not disturb another's.
func TestScratchConfigsIndependent(t *testing.T) {
	r := rngx.New(0x1D)
	var sc Scratch
	const n = 9
	alpha1, beta1 := randVec(r, n), randVec(r, n)
	alpha2, beta2 := randVec(r, n), randVec(r, n)
	s1, err := selectCase2(alpha1, beta1, Options{}, &sc)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := SelectCase2(alpha1, beta1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := selectCase2(alpha2, beta2, Options{}, &sc)
	if err != nil {
		t.Fatal(err)
	}
	// Scribble over the second selection's vectors...
	for i := range s2.X {
		s2.X[i] = !s2.X[i]
		s2.Y[i] = !s2.Y[i]
	}
	// ...and the first must be untouched.
	if !selectionsEqual(s1, ref) {
		t.Fatal("mutating a later selection's configs corrupted an earlier selection from the same Scratch")
	}
	// Appending to a carved config must not grow into the arena either.
	grown := append(s1.X, true)
	if &grown[0] == &s1.X[0] {
		t.Fatal("append grew a carved config in place; full-slice expression missing")
	}
}

// TestEnrollWithMatchesEnroll verifies the scratch-backed enrollment is
// observationally identical to the plain one.
func TestEnrollWithMatchesEnroll(t *testing.T) {
	r := rngx.New(0xE7)
	for trial := 0; trial < 20; trial++ {
		pairs := make([]Pair, 16)
		for i := range pairs {
			pairs[i] = Pair{Alpha: randVec(r, 12), Beta: randVec(r, 12)}
		}
		mode := Case1
		if trial%2 == 1 {
			mode = Case2
		}
		var sc Scratch
		want, errWant := Enroll(pairs, mode, 3.0, Options{})
		got, errGot := EnrollWith(&sc, pairs, mode, 3.0, Options{})
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, errWant, errGot)
		}
		if errWant != nil {
			continue
		}
		if want.Response.String() != got.Response.String() {
			t.Fatalf("trial %d: responses differ: %s vs %s", trial, want.Response, got.Response)
		}
		for i := range want.Selections {
			if want.Mask[i] != got.Mask[i] {
				t.Fatalf("trial %d pair %d: mask differs", trial, i)
			}
			if !selectionsEqual(want.Selections[i], got.Selections[i]) {
				t.Fatalf("trial %d pair %d: selections differ", trial, i)
			}
		}
	}
}

// TestSelectionScratchAllocsAmortized pins the allocation behaviour the
// fleet hot path relies on: with a warm Scratch, a Case-2 selection's only
// allocations are the amortized arena blocks (well under one per call).
func TestSelectionScratchAllocsAmortized(t *testing.T) {
	r := rngx.New(0xA11)
	const n = 15
	alpha, beta := randVec(r, n), randVec(r, n)
	var sc Scratch
	if _, err := selectCase2(alpha, beta, Options{}, &sc); err != nil {
		t.Fatal(err) // warm the index buffers and the first arena block
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := selectCase2(alpha, beta, Options{}, &sc); err != nil {
			t.Fatal(err)
		}
	})
	// 2n bools per call out of arenaBlockBools-sized blocks → ~1 block per
	// 68 calls at n=15. Anything ≥1 alloc/call means per-call buffers came
	// back.
	if avg >= 1 {
		t.Fatalf("warm Case-2 selection averaged %v allocs/call, want amortized <1", avg)
	}
	if _, err := selectCase1(alpha, beta, Options{}, &sc); err != nil {
		t.Fatal(err)
	}
	avg = testing.AllocsPerRun(200, func() {
		if _, err := selectCase1(alpha, beta, Options{}, &sc); err != nil {
			t.Fatal(err)
		}
	})
	if avg >= 1 {
		t.Fatalf("warm Case-1 selection averaged %v allocs/call, want amortized <1", avg)
	}
}
