package nist

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"strings"
	"testing"
	"testing/quick"

	"ropuf/internal/bits"
	"ropuf/internal/rngx"
)

// IFFT computes the inverse DFT (scaled by 1/n): the test reference that
// FFT round-trips against.
func IFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	conj := make([]complex128, n)
	for i, v := range x {
		conj[i] = cmplx.Conj(v)
	}
	y := FFT(conj)
	for i := range y {
		y[i] = cmplx.Conj(y[i]) / complex(float64(n), 0)
	}
	return y
}

func randomBits(seed uint64, n int) *bits.Stream {
	r := rngx.New(seed)
	s := bits.New(n)
	for i := 0; i < n; i++ {
		s.Append(r.Bool())
	}
	return s
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 10, 16, 25, 96} {
		x := make([]complex128, n)
		r := rngx.New(uint64(n))
		for i := range x {
			x[i] = complex(r.Norm(), r.Norm())
		}
		got := FFT(x)
		for k := 0; k < n; k++ {
			var want complex128
			for j := 0; j < n; j++ {
				ang := -2 * math.Pi * float64(j) * float64(k) / float64(n)
				want += x[j] * cmplx.Exp(complex(0, ang))
			}
			if cmplx.Abs(got[k]-want) > 1e-8*float64(n) {
				t.Fatalf("n=%d k=%d: FFT %.6g, naive %.6g", n, k, got[k], want)
			}
		}
	}
}

func TestFFTInverseRoundtrip(t *testing.T) {
	for _, n := range []int{5, 8, 12, 96, 100} {
		x := make([]complex128, n)
		r := rngx.New(uint64(100 + n))
		for i := range x {
			x[i] = complex(r.Norm(), r.Norm())
		}
		y := IFFT(FFT(x))
		for i := range x {
			if cmplx.Abs(y[i]-x[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: roundtrip diverged at %d", n, i)
			}
		}
	}
	if FFT(nil) != nil || IFFT(nil) != nil {
		t.Fatal("FFT/IFFT of empty input should be nil")
	}
}

func TestBerlekampMasseyKnownSequences(t *testing.T) {
	toBools := func(s string) []bool {
		out := make([]bool, len(s))
		for i := range s {
			out[i] = s[i] == '1'
		}
		return out
	}
	if got := BerlekampMassey(toBools("0000000000")); got != 0 {
		t.Errorf("all-zeros complexity %d, want 0", got)
	}
	if got := BerlekampMassey(toBools("0000000001")); got != 10 {
		t.Errorf("single trailing one complexity %d, want n=10", got)
	}
	if got := BerlekampMassey(toBools("1")); got != 1 {
		t.Errorf("single one complexity %d, want 1", got)
	}
	if got := BerlekampMassey(nil); got != 0 {
		t.Errorf("empty complexity %d, want 0", got)
	}
	// Alternating sequence 0101...: generated by s[i] = s[i-2], L = 2.
	if got := BerlekampMassey(toBools("01010101010101")); got != 2 {
		t.Errorf("alternating complexity %d, want 2", got)
	}
}

func TestBerlekampMasseyLFSR(t *testing.T) {
	// m-sequence from the primitive polynomial x^4 + x + 1:
	// s[i] = s[i-3] XOR s[i-4]; period 15, linear complexity 4.
	seq := make([]bool, 45)
	seq[0], seq[1], seq[2], seq[3] = true, false, false, false
	for i := 4; i < len(seq); i++ {
		seq[i] = seq[i-3] != seq[i-4]
	}
	// Verify period 15 (sanity that the polynomial is primitive).
	for i := 15; i < len(seq); i++ {
		if seq[i] != seq[i-15] {
			t.Fatal("test LFSR does not have period 15")
		}
	}
	if got := BerlekampMassey(seq); got != 4 {
		t.Fatalf("LFSR complexity %d, want 4", got)
	}
}

func TestBerlekampMasseyBound(t *testing.T) {
	check := func(seed uint64, lenSel uint8) bool {
		n := int(lenSel%64) + 1
		s := randomBits(seed, n)
		block := make([]bool, n)
		for i := 0; i < n; i++ {
			block[i] = s.Bit(i)
		}
		l := BerlekampMassey(block)
		return l >= 0 && l <= n
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryRank(t *testing.T) {
	// Identity: full rank.
	rows := make([]uint32, 32)
	for i := range rows {
		rows[i] = 1 << uint(i)
	}
	if got := BinaryRank(rows); got != 32 {
		t.Fatalf("identity rank %d, want 32", got)
	}
	// All zero: rank 0.
	if got := BinaryRank(make([]uint32, 32)); got != 0 {
		t.Fatal("zero matrix rank should be 0")
	}
	// All rows equal: rank 1.
	for i := range rows {
		rows[i] = 0xdeadbeef
	}
	if got := BinaryRank(rows); got != 1 {
		t.Fatalf("duplicate-rows rank %d, want 1", got)
	}
	// Two distinct rows repeated: rank 2.
	for i := range rows {
		if i%2 == 0 {
			rows[i] = 0xf0f0f0f0
		} else {
			rows[i] = 0x0f0f0f0f
		}
	}
	if got := BinaryRank(rows); got != 2 {
		t.Fatalf("two-distinct-rows rank %d, want 2", got)
	}
}

func TestAperiodicTemplates(t *testing.T) {
	// Known counts from the reference implementation.
	counts := map[int]int{2: 2, 3: 4, 4: 6, 9: 148}
	for m, want := range counts {
		got := AperiodicTemplates(m)
		if len(got) != want {
			t.Errorf("m=%d: %d templates, want %d", m, len(got), want)
		}
	}
	// "01" is aperiodic, "11" is not.
	for _, tpl := range AperiodicTemplates(2) {
		if tpl[0] == tpl[1] {
			t.Errorf("periodic template %v returned", tpl)
		}
	}
	if AperiodicTemplates(0) != nil || AperiodicTemplates(17) != nil {
		t.Error("out-of-range template length should return nil")
	}
}

func TestRandomStreamPassesApplicableTests(t *testing.T) {
	// A 200k-bit PRNG stream should pass every applicable standard test.
	s := randomBits(0xfeedface, 200_000)
	results, err := RunAll(s, StandardSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 10 {
		t.Fatalf("only %d tests ran on 200k bits", len(results))
	}
	failures := 0
	total := 0
	for _, res := range results {
		for _, pv := range res.PVs {
			total++
			if !pv.Pass() {
				failures++
				t.Logf("FAIL %s %s: p=%.4f", res.Test, pv.Label, pv.P)
			}
		}
	}
	// With α = 0.01 and ~170 sub-tests, a few failures are expected
	// statistically; more than 5% indicates a broken generator or test.
	if float64(failures) > 0.05*float64(total)+1 {
		t.Fatalf("%d of %d sub-tests failed", failures, total)
	}
}

func TestConstantStreamFails(t *testing.T) {
	s := bits.New(1024)
	for i := 0; i < 1024; i++ {
		s.Append(true)
	}
	pvs, err := FrequencyTest().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if pvs[0].Pass() {
		t.Fatal("all-ones stream passed the frequency test")
	}
	pvs, err = RunsTest().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if pvs[0].Pass() {
		t.Fatal("all-ones stream passed the runs test")
	}
}

func TestPeriodicStreamFailsDFT(t *testing.T) {
	// Strong periodicity concentrates spectral energy: DFT must fail.
	s := bits.New(1024)
	for i := 0; i < 1024; i++ {
		s.Append(i%4 < 2)
	}
	pvs, err := DFTTest().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if pvs[0].Pass() {
		t.Fatal("period-4 stream passed the spectral test")
	}
}

func TestBiasedStreamFailsApEn(t *testing.T) {
	r := rngx.New(7)
	s := bits.New(4096)
	for i := 0; i < 4096; i++ {
		s.Append(r.Float64() < 0.30) // strongly biased
	}
	pvs, err := ApproximateEntropyTest(4).Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if pvs[0].Pass() {
		t.Fatal("heavily biased stream passed approximate entropy")
	}
}

func TestShortSuiteComposition(t *testing.T) {
	ts := ShortSuite(96)
	if len(ts) == 0 {
		t.Fatal("ShortSuite(96) empty")
	}
	for _, test := range ts {
		if test.MinBits > 96 {
			t.Errorf("%s requires %d bits but is in ShortSuite(96)", test.Name, test.MinBits)
		}
	}
	// 32-bit suite drops the block tests.
	short := ShortSuite(32)
	for _, test := range short {
		if strings.HasPrefix(test.Name, "LongestRun") {
			t.Error("LongestRun must not appear in ShortSuite(32)")
		}
	}
}

func TestRunAllSkipsTooShort(t *testing.T) {
	s := randomBits(1, 96)
	results, err := RunAll(s, StandardSuite())
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Test == "Universal" || res.Test == "Rank" {
			t.Errorf("%s ran on a 96-bit stream", res.Test)
		}
	}
}

func TestMinPassCount(t *testing.T) {
	// The paper's quoted value: 93 of 97.
	if got := MinPassCount(97); got != 93 {
		t.Fatalf("MinPassCount(97) = %d, want 93", got)
	}
	if got := MinPassCount(1000); got != 980 {
		t.Fatalf("MinPassCount(1000) = %d, want 980", got)
	}
	if got := MinPassCount(0); got != 0 {
		t.Fatalf("MinPassCount(0) = %d, want 0", got)
	}
}

func TestRunReportAggregation(t *testing.T) {
	streams := make([]*bits.Stream, 50)
	for i := range streams {
		streams[i] = randomBits(uint64(i)+1000, 128)
	}
	rep, err := RunReport(streams, []Test{FrequencyTest(), CumulativeSumsTest()})
	if err != nil {
		t.Fatal(err)
	}
	// Frequency: one row; CumulativeSums: two (forward/backward).
	if len(rep.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		sum := 0
		for _, c := range row.C {
			sum += c
		}
		if sum != 50 || row.Total != 50 {
			t.Fatalf("%s: histogram sums to %d, total %d, want 50", row.Test, sum, row.Total)
		}
		if row.Pass > row.Total {
			t.Fatalf("%s: pass %d > total %d", row.Test, row.Pass, row.Total)
		}
	}
	out := rep.Render()
	for _, want := range []string{"C1", "P-VALUE", "PROPORTION", "Frequency", "CumulativeSums (forward)", "minimum pass rate"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestReportAllPass(t *testing.T) {
	good := &Report{NumStreams: 97, Rows: []ReportRow{{Test: "t", Pass: 95, Total: 97}}}
	if !good.AllPass() {
		t.Fatal("95/97 should pass (threshold 93)")
	}
	bad := &Report{NumStreams: 97, Rows: []ReportRow{{Test: "t", Pass: 90, Total: 97}}}
	if bad.AllPass() {
		t.Fatal("90/97 should fail")
	}
	empty := &Report{NumStreams: 0}
	if empty.AllPass() {
		t.Fatal("empty report must not claim success")
	}
}

func TestPValuesAlwaysInRange(t *testing.T) {
	// Fuzz all short-suite tests across many random streams: p ∈ [0, 1].
	for seed := uint64(0); seed < 50; seed++ {
		s := randomBits(seed, 96+int(seed%64))
		results, err := RunAll(s, ShortSuite(s.Len()))
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			for _, pv := range res.PVs {
				if pv.P < 0 || pv.P > 1 || math.IsNaN(pv.P) {
					t.Fatalf("%s %s: p = %g out of range (seed %d)", res.Test, pv.Label, pv.P, seed)
				}
			}
		}
	}
}

func TestLinearComplexityOnRandomData(t *testing.T) {
	s := randomBits(0xabc, 20_000)
	pvs, err := LinearComplexityTest(500).Run(s)
	if err != nil {
		t.Fatal(err)
	}
	// A single stream fails with probability α = 0.01 even when healthy;
	// require only that p is not catastrophically small.
	if pvs[0].P < 1e-3 {
		t.Fatalf("random stream failed linear complexity badly: p=%.5f", pvs[0].P)
	}
	// A pure LFSR stream has constant low complexity per block: must fail.
	lfsr := bits.New(20_000)
	state := uint32(0xace1)
	for i := 0; i < 20_000; i++ {
		bit := state & 1
		state >>= 1
		if bit == 1 {
			state ^= 0xB400
		}
		lfsr.Append(bit == 1)
	}
	pvs, err = LinearComplexityTest(500).Run(lfsr)
	if err != nil {
		t.Fatal(err)
	}
	if pvs[0].Pass() {
		t.Fatal("16-bit LFSR stream passed linear complexity")
	}
}

func TestRankTestOnRandomData(t *testing.T) {
	s := randomBits(0xdef, 64*1024)
	pvs, err := RankTest().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !pvs[0].Pass() {
		t.Fatalf("random stream failed rank test: p=%.4f", pvs[0].P)
	}
	// Constant stream: every matrix has rank 1 → hard fail.
	c := bits.New(64 * 1024)
	for i := 0; i < 64*1024; i++ {
		c.Append(true)
	}
	pvs, err = RankTest().Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if pvs[0].Pass() {
		t.Fatal("constant stream passed rank test")
	}
}

func TestUniversalOnRandomData(t *testing.T) {
	s := randomBits(0x123, 400_000)
	pvs, err := UniversalTest().Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !pvs[0].Pass() {
		t.Fatalf("random stream failed universal: p=%.4f", pvs[0].P)
	}
}

// TestUniversalBlockLenBoundaries derives each threshold of the §2.9 table
// from the spec's rule n >= (Q+K)·L = 1010·2^L·L and checks that L starts
// exactly there.
func TestUniversalBlockLenBoundaries(t *testing.T) {
	if got := universalBlockLen(0); got != 0 {
		t.Fatalf("universalBlockLen(0) = %d, want 0", got)
	}
	for l := 6; l <= 16; l++ {
		t.Run(fmt.Sprintf("L=%d", l), func(t *testing.T) {
			n := 1010 * (1 << uint(l)) * l
			if got := universalBlockLen(n); got != l {
				t.Errorf("universalBlockLen(%d) = %d, want %d", n, got, l)
			}
			want := l - 1
			if l == 6 {
				want = 0 // below the smallest threshold the test does not apply
			}
			if got := universalBlockLen(n - 1); got != want {
				t.Errorf("universalBlockLen(%d) = %d, want %d", n-1, got, want)
			}
		})
	}
	if _, err := UniversalTest().Run(randomBits(9, 387839)); !errors.Is(err, ErrTooShort) {
		t.Fatalf("universal on 387839 bits: err = %v, want ErrTooShort", err)
	}
}

// TestLongestRunParamsBoundaries pins the §2.4 block-size table: each row
// starts at its threshold, and each row's category probabilities sum to 1.
func TestLongestRunParamsBoundaries(t *testing.T) {
	if _, err := longestRunFor(127); !errors.Is(err, ErrTooShort) {
		t.Fatalf("longestRunFor(127): err = %v, want ErrTooShort", err)
	}
	for _, c := range []struct{ n, m, k int }{
		{128, 8, 3}, {6271, 8, 3}, {6272, 128, 5}, {749999, 128, 5}, {750000, 10000, 6},
	} {
		p, err := longestRunFor(c.n)
		if err != nil {
			t.Fatal(err)
		}
		if p.m != c.m || p.k != c.k || len(p.pi) != p.k+1 {
			t.Fatalf("n=%d: m=%d k=%d with %d categories, want m=%d k=%d", c.n, p.m, p.k, len(p.pi), c.m, c.k)
		}
		sum := 0.0
		for _, pi := range p.pi {
			sum += pi
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Fatalf("n=%d: category probabilities sum to %g", c.n, sum)
		}
	}
}

func TestExcursionsApplicabilityGate(t *testing.T) {
	// A short random stream has far fewer than 500 cycles.
	s := randomBits(5, 4096)
	if _, err := RandomExcursionsPValues(s, true); err == nil {
		t.Fatal("applicability constraint not enforced")
	}
	if _, err := RandomExcursionsVariantPValues(s, true); err == nil {
		t.Fatal("variant applicability constraint not enforced")
	}
}

// TestExcursionsSuiteEntriesEnforceGate checks that the suite's entries run
// with the applicability constraint on, so a short stream is skipped as too
// short rather than scored.
func TestExcursionsSuiteEntriesEnforceGate(t *testing.T) {
	s := randomBits(5, 4096)
	for _, test := range []Test{RandomExcursionsTest(), RandomExcursionsVariantTest()} {
		if _, err := test.Run(s); !errors.Is(err, ErrTooShort) {
			t.Errorf("%s on %d bits: err = %v, want ErrTooShort", test.Name, s.Len(), err)
		}
	}
}

func TestReportKSDiagnostics(t *testing.T) {
	streams := make([]*bits.Stream, 60)
	for i := range streams {
		streams[i] = randomBits(uint64(i)+5000, 256)
	}
	rep, err := RunReport(streams, []Test{FrequencyTest(), RunsTest()})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		if row.KSP < 0 || row.KSP > 1 {
			t.Fatalf("%s: KS p-value %g out of range", row.Test, row.KSP)
		}
		// Random data: the uniformity of p-values should not be rejected
		// catastrophically by KS.
		if row.KSP < 1e-6 {
			t.Errorf("%s: KS p-value %g rejects uniformity on random data", row.Test, row.KSP)
		}
	}
	diag := rep.RenderDiagnostics()
	for _, want := range []string{"CHI2 P", "KS P", "Frequency", "Runs"} {
		if !strings.Contains(diag, want) {
			t.Errorf("diagnostics missing %q", want)
		}
	}
}
