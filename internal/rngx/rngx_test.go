package rngx

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d, generators with same seed diverged", i, got, want)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws out of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	// Children must differ from each other.
	diff := false
	for i := 0; i < 64; i++ {
		if c1.Uint64() != c2.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("sibling children produced identical streams")
	}
	// Splitting is deterministic: rebuilding the parent reproduces children.
	e1 := New(7).Split()
	r1 := New(7).Split()
	for i := 0; i < 16; i++ {
		if e1.Uint64() != r1.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %g, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnCoversAllValues(t *testing.T) {
	r := New(6)
	seen := make([]bool, 8)
	for i := 0; i < 10000; i++ {
		seen[r.Intn(8)] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("Intn(8) never produced %d in 10000 draws", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	r := New(1)
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			r.Intn(n)
		}()
	}
}

func TestNormMoments(t *testing.T) {
	r := New(8)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Norm variance %g, want ~1", variance)
	}
}

func TestNormMeanStd(t *testing.T) {
	r := New(9)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.NormMeanStd(10, 2)
	}
	mean := sum / n
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("NormMeanStd(10,2) mean %g, want ~10", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(10)
	check := func(n uint8) bool {
		size := int(n%32) + 1
		p := r.Perm(size)
		if len(p) != size {
			return false
		}
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(12)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed element multiset: sum %d, want %d", got, sum)
	}
}

func TestBoolBalance(t *testing.T) {
	r := New(13)
	trues := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool() {
			trues++
		}
	}
	frac := float64(trues) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("Bool true fraction %g, want ~0.5", frac)
	}
}

func TestUint64BitBalance(t *testing.T) {
	// Every bit position of Uint64 output should be ~50% ones.
	r := New(14)
	const n = 20000
	counts := make([]int, 64)
	for i := 0; i < n; i++ {
		v := r.Uint64()
		for b := 0; b < 64; b++ {
			if v>>uint(b)&1 == 1 {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.5) > 0.02 {
			t.Errorf("bit %d ones fraction %g, want ~0.5", b, frac)
		}
	}
}

func TestNormFillMatchesSequentialNorm(t *testing.T) {
	// NormFill must consume the generator exactly as sequential NormMeanStd
	// calls would: same values bit for bit, same spare-variate state after,
	// with and without a cached spare going in.
	// Every length up to 300 crosses the short-fill cutoff and several
	// chunk boundaries; 3,328 is one synthetic device (128 pairs × 13
	// stages × 2 rings).
	lengths := []int{3328}
	for n := 0; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, primeSpare := range []bool{false, true} {
			seed := uint64(1000 + n)
			ref := New(seed)
			got := New(seed)
			if primeSpare {
				if a, b := ref.Norm(), got.Norm(); a != b {
					t.Fatalf("n=%d: priming draws diverged: %v vs %v", n, a, b)
				}
			}
			want := make([]float64, n)
			for i := range want {
				want[i] = ref.NormMeanStd(3, 0.25)
			}
			dst := make([]float64, n)
			got.NormFill(dst, 3, 0.25)
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("n=%d prime=%v: value %d = %x, want %x",
						n, primeSpare, i, math.Float64bits(dst[i]), math.Float64bits(want[i]))
				}
			}
			// Post-call state must match too: the spare cache and the raw
			// stream position both show up in the next few draws.
			for i := 0; i < 3; i++ {
				if a, b := ref.Norm(), got.Norm(); a != b {
					t.Fatalf("n=%d prime=%v: post-fill Norm draw %d diverged", n, primeSpare, i)
				}
			}
			if a, b := ref.Uint64(), got.Uint64(); a != b {
				t.Fatalf("n=%d prime=%v: post-fill raw stream diverged", n, primeSpare)
			}
		}
	}
}

func TestNormFillAllocFree(t *testing.T) {
	r := New(7)
	dst := make([]float64, 64)
	if avg := testing.AllocsPerRun(100, func() { r.NormFill(dst, 0, 1) }); avg != 0 {
		t.Fatalf("NormFill allocated %v times per call, want 0", avg)
	}
}

func TestNormFillMoments(t *testing.T) {
	r := New(99)
	dst := make([]float64, 200000)
	r.NormFill(dst, 5, 2)
	var sum, sq float64
	for _, v := range dst {
		sum += v
	}
	mean := sum / float64(len(dst))
	for _, v := range dst {
		sq += (v - mean) * (v - mean)
	}
	std := math.Sqrt(sq / float64(len(dst)))
	if math.Abs(mean-5) > 0.02 {
		t.Fatalf("NormFill mean %g, want ~5", mean)
	}
	if math.Abs(std-2) > 0.02 {
		t.Fatalf("NormFill std %g, want ~2", std)
	}
}

// normFillOracle is len(dst) sequential NormMeanStd calls, the contract
// NormFill keeps.
func normFillOracle(r *RNG, dst []float64, mean, std float64) {
	for i := range dst {
		dst[i] = r.NormMeanStd(mean, std)
	}
}

func FuzzNormFill(f *testing.F) {
	f.Add(uint64(1), uint16(0), 0.0, 1.0, false)
	f.Add(uint64(2), uint16(7), 3.0, 0.25, true)
	f.Add(uint64(3), uint16(8), -1.5, 2.0, false)
	f.Add(uint64(4), uint16(129), 200.0, 5.0, true)
	f.Add(uint64(5), uint16(3328), 0.0, 1e-3, false)
	f.Fuzz(func(t *testing.T, seed uint64, length uint16, mean, std float64, spare bool) {
		n := int(length % 4096)
		ref, got := New(seed), New(seed)
		if spare {
			ref.Norm()
			got.Norm()
		}
		want := make([]float64, n)
		normFillOracle(ref, want, mean, std)
		dst := make([]float64, n)
		got.NormFill(dst, mean, std)
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d spare=%v: value %d = %x, want %x", n, spare, i,
					math.Float64bits(dst[i]), math.Float64bits(want[i]))
			}
		}
		// A spare that is not held is never read, so only a held one
		// must match.
		if got.s != ref.s || got.haveSpare != ref.haveSpare ||
			ref.haveSpare && math.Float64bits(got.spare) != math.Float64bits(ref.spare) {
			t.Fatalf("n=%d spare=%v: end state %+v, want %+v", n, spare, *got, *ref)
		}
	})
}

func BenchmarkNormFill(b *testing.B) {
	for _, n := range []int{1, 5, 13, 26, 3328} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := New(1)
			dst := make([]float64, n)
			for b.Loop() {
				r.NormFill(dst, 0, 1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
		})
	}
}
