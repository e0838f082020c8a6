package experiments

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ropuf/internal/bits"
	"ropuf/internal/core"
	"ropuf/internal/dataset"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden experiment output")

// sharedRunner caches datasets across tests in this package.
var sharedRunner = NewRunner()

// fscanLine finds the first line of text containing the literal prefix of
// format (up to its first verb) and scans it with fmt.Sscanf.
func fscanLine(text, format string, args ...any) (int, error) {
	key := format
	if i := strings.Index(format, "%"); i >= 0 {
		key = strings.TrimSpace(format[:i])
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, key) {
			return fmt.Sscanf(strings.TrimSpace(line), format, args...)
		}
	}
	return 0, fmt.Errorf("experiments: no line matching %q", key)
}

func TestIDsAndDispatch(t *testing.T) {
	ids := IDs()
	if len(ids) != 26 {
		t.Fatalf("IDs() has %d entries, want 26 (10 paper + 16 extensions)", len(ids))
	}
	if _, err := sharedRunner.Run("nonsense"); err == nil {
		t.Fatal("Run accepted unknown experiment ID")
	}
}

func TestPufStreamsShape(t *testing.T) {
	streams, err := sharedRunner.pufStreams(core.Case1, distillerDegree)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's arithmetic: 194 boards × 48 bits → 97 streams × 96 bits.
	if len(streams) != 97 {
		t.Fatalf("streams = %d, want 97", len(streams))
	}
	for i, s := range streams {
		if s.Len() != 96 {
			t.Fatalf("stream %d has %d bits, want 96", i, s.Len())
		}
	}
}

// TestPufStreamsBuiltOncePerRunner asks a fresh runner for the same
// stream set from several goroutines at once (run it under -race): every
// caller must get the one set built, while another mode or degree gets a
// set of its own.
func TestPufStreamsBuiltOncePerRunner(t *testing.T) {
	r := NewRunner()
	got := make([][]*bits.Stream, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = r.pufStreams(core.Case1, distillerDegree)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(got[i]) != 97 || &got[i][0] != &got[0][0] {
			t.Fatalf("caller %d got a set of %d streams apart from caller 0's", i, len(got[i]))
		}
	}
	for _, key := range []streamKey{{core.Case1, raw}, {core.Case2, distillerDegree}} {
		other, err := r.pufStreams(key.mode, key.degree)
		if err != nil {
			t.Fatal(err)
		}
		if &other[0] == &got[0][0] {
			t.Fatalf("%v at degree %d shares the Case-1 degree-%d set", key.mode, key.degree, distillerDegree)
		}
	}
}

func TestCase1AndCase2BitsNearlyIdentical(t *testing.T) {
	// Both selection modes answer "which configured ring is slower"; on
	// distilled data their response bits coincide essentially always
	// (the paper's Fig. 3 statistics differ only in the second decimal).
	// Guard that property: < 5% disagreement.
	s1, err := sharedRunner.pufStreams(core.Case1, distillerDegree)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sharedRunner.pufStreams(core.Case2, distillerDegree)
	if err != nil {
		t.Fatal(err)
	}
	diff, total := 0, 0
	for i := range s1 {
		d, err := bits.HammingDistance(s1[i], s2[i])
		if err != nil {
			t.Fatal(err)
		}
		diff += d
		total += s1[i].Len()
	}
	if float64(diff) > 0.05*float64(total) {
		t.Fatalf("Case-1 and Case-2 disagree on %d of %d bits", diff, total)
	}
}

func TestGroupPairsLayout(t *testing.T) {
	delays := make([]float64, 512)
	for i := range delays {
		delays[i] = float64(i)
	}
	pairs, err := groupPairs(delays, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 48 {
		t.Fatalf("pairs = %d, want 48", len(pairs))
	}
	// Pair p uses delays [10p, 10p+5) and [10p+5, 10p+10).
	if pairs[1].Alpha[0] != 10 || pairs[1].Beta[0] != 15 {
		t.Fatalf("pair 1 = %v/%v, wrong layout", pairs[1].Alpha, pairs[1].Beta)
	}
}

func TestTableIRawFailsDistilledPasses(t *testing.T) {
	res, err := sharedRunner.Run("tableI")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "raw streams fail, as the paper reports") {
		t.Error("Table I: raw streams did not fail NIST")
	}
	if !strings.Contains(res.Text, "all tests pass the proportion threshold") {
		t.Error("Table I: distilled streams did not pass NIST")
	}
	if !strings.Contains(res.Text, "approximately = 93 for a sample size = 97") {
		t.Error("Table I: pass-rate line missing or wrong")
	}
}

func TestTableIIMatchesPaperNarrative(t *testing.T) {
	res, err := sharedRunner.Run("tableII")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "Case-2") {
		t.Error("Table II must use Case-2 selection")
	}
	if !strings.Contains(res.Text, "all tests pass the proportion threshold") {
		t.Error("Table II: distilled streams did not pass NIST")
	}
}

func TestFig3Uniqueness(t *testing.T) {
	res, err := sharedRunner.Run("fig3")
	if err != nil {
		t.Fatal(err)
	}
	// Paper: mean ≈ 46.9, σ ≈ 4.9 of 96 bits. Accept mean in [43, 53]
	// (45%–55% uniqueness) — the bell must be centred near half.
	if !strings.Contains(res.Text, "mean HD") {
		t.Fatal("Fig 3 output missing mean HD")
	}
	var mean, std float64
	if _, err := fscanLine(res.Text, "mean HD = %f bits, std = %f", &mean, &std); err != nil {
		t.Fatalf("cannot parse mean HD: %v", err)
	}
	if mean < 43 || mean > 53 {
		t.Errorf("mean HD %.2f outside [43, 53]", mean)
	}
	if std < 3 || std > 7 {
		t.Errorf("std %.2f outside [3, 7]", std)
	}
}

func TestTableIIIConfigDistribution(t *testing.T) {
	vectors, err := sharedRunner.configVectors(core.Case1)
	if err != nil {
		t.Fatal(err)
	}
	if len(vectors) != 194*16 {
		t.Fatalf("vectors = %d, want %d", len(vectors), 194*16)
	}
	for _, v := range vectors {
		if v.Len() != 15 {
			t.Fatalf("Case-1 vector has %d bits, want 15", v.Len())
		}
	}
}

func TestTableIVConfigDistribution(t *testing.T) {
	vectors, err := sharedRunner.configVectors(core.Case2)
	if err != nil {
		t.Fatal(err)
	}
	if len(vectors) != 194*16 {
		t.Fatalf("vectors = %d, want %d", len(vectors), 194*16)
	}
	ones := 0
	for _, v := range vectors {
		if v.Len() != 30 {
			t.Fatalf("Case-2 vector has %d bits, want 30", v.Len())
		}
		ones += v.OnesCount()
		// Case-2 invariant: x and y halves select equal counts, so the
		// total weight is even.
		if v.OnesCount()%2 != 0 {
			t.Fatal("Case-2 combined vector has odd weight")
		}
	}
	// The paper conjectures roughly half the stages selected.
	meanOnes := float64(ones) / float64(len(vectors))
	if meanOnes < 8 || meanOnes > 22 {
		t.Errorf("mean selected stages %.1f of 30, expected near half", meanOnes)
	}
}

func TestFig4Shape(t *testing.T) {
	ds, err := sharedRunner.VT()
	if err != nil {
		t.Fatal(err)
	}
	env := ds.EnvBoards()
	if len(env) != 5 {
		t.Fatalf("env boards = %d, want 5", len(env))
	}
	sweep := dataset.VoltageSweep()
	var confMid, trad, oo8 float64
	cells := 0
	for _, board := range env {
		for _, n := range []int{3, 5, 7, 9} {
			cell, err := reliabilityCell(board, n, core.Case1, sweep)
			if err != nil {
				t.Fatal(err)
			}
			if len(cell.Configurable) != len(sweep) {
				t.Fatalf("cell has %d configurable bars, want %d", len(cell.Configurable), len(sweep))
			}
			confMid += cell.mid()
			trad += cell.Traditional
			oo8 += cell.OneOutOf8
			cells++
		}
	}
	confMid /= float64(cells)
	trad /= float64(cells)
	oo8 /= float64(cells)
	// Paper shape: traditional ≫ configurable; 1-out-of-8 ~ 0.
	if trad < 5 {
		t.Errorf("traditional flip rate %.2f%% suspiciously low", trad)
	}
	if confMid > trad/3 {
		t.Errorf("configurable (mid) %.2f%% not clearly below traditional %.2f%%", confMid, trad)
	}
	if oo8 > 1 {
		t.Errorf("1-out-of-8 flip rate %.2f%% should be ~0", oo8)
	}
}

func TestFig4NEquals7MidConfigZero(t *testing.T) {
	// Paper observation 3: with n = 7 and the mid-voltage configuration,
	// every board reaches 0% flips.
	ds, err := sharedRunner.VT()
	if err != nil {
		t.Fatal(err)
	}
	for _, board := range ds.EnvBoards() {
		cell, err := reliabilityCell(board, 7, core.Case1, dataset.VoltageSweep())
		if err != nil {
			t.Fatal(err)
		}
		if cell.mid() != 0 {
			t.Errorf("board %d: n=7 mid-voltage flips %.2f%%, want 0", board.ID, cell.mid())
		}
	}
}

func TestFig5TemperatureOnlyTraditionalFlips(t *testing.T) {
	ds, err := sharedRunner.VT()
	if err != nil {
		t.Fatal(err)
	}
	sweep := dataset.TemperatureSweep()
	var conf, trad float64
	for _, board := range ds.EnvBoards() {
		for _, n := range []int{3, 5, 7, 9} {
			cell, err := reliabilityCell(board, n, core.Case1, sweep)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range cell.Configurable {
				conf += v
			}
			trad += cell.Traditional
		}
	}
	if conf != 0 {
		t.Errorf("configurable PUF flipped under temperature (sum %.2f%%), paper says none", conf)
	}
	if trad == 0 {
		t.Error("traditional PUF never flipped under temperature; paper observes flips")
	}
}

func TestTableVText(t *testing.T) {
	res, err := sharedRunner.Run("tableV")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"80", "48", "32", "24", "20", "12", "4x"} {
		if !strings.Contains(res.Text, want) {
			t.Errorf("Table V missing %q", want)
		}
	}
}

func TestThresholdExperiment(t *testing.T) {
	res, err := sharedRunner.Run("threshold")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "Traditional RO PUF") ||
		!strings.Contains(res.Text, "Configurable (Case-2)") {
		t.Fatal("threshold report missing schemes")
	}
	// Case-2 must keep all 32 bits at Rth=3 while traditional loses many.
	lines := strings.Split(res.Text, "\n")
	var tradLine, case2Line string
	for _, l := range lines {
		if strings.HasPrefix(l, "Traditional RO PUF") {
			tradLine = l
		}
		if strings.HasPrefix(l, "Configurable (Case-2)") {
			case2Line = l
		}
	}
	if tradLine == "" || case2Line == "" {
		t.Fatal("scheme rows missing")
	}
	var tv, cv [6]float64
	if _, err := fscanLine(tradLine, "Traditional RO PUF %f %f %f %f %f %f", &tv[0], &tv[1], &tv[2], &tv[3], &tv[4], &tv[5]); err != nil {
		t.Fatalf("parse traditional row: %v (%q)", err, tradLine)
	}
	if _, err := fscanLine(case2Line, "Configurable (Case-2) %f %f %f %f %f %f", &cv[0], &cv[1], &cv[2], &cv[3], &cv[4], &cv[5]); err != nil {
		t.Fatalf("parse case-2 row: %v (%q)", err, case2Line)
	}
	if tv[0] != 32 || cv[0] != 32 {
		t.Errorf("Rth=0 yields %g/%g bits, want 32/32", tv[0], cv[0])
	}
	if cv[3] < 31.5 {
		t.Errorf("Case-2 keeps %.1f bits at Rth=3, want ~32", cv[3])
	}
	if tv[3] > 24 {
		t.Errorf("traditional keeps %.1f bits at Rth=3, expected a large drop", tv[3])
	}
}

func TestSummaryExperiment(t *testing.T) {
	res, err := sharedRunner.Run("summary")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "4x more bits") {
		t.Error("summary missing 4x hardware-efficiency claim")
	}
}

// TestRunAllExperiments runs every experiment and compares the ID, title
// and text of each, in IDs() order, with testdata/experiments_v1.golden:
// the reproduction's whole rendered output, pinned byte for byte.
func TestRunAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in short mode")
	}
	var b strings.Builder
	for _, id := range IDs() {
		r, err := sharedRunner.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if r.Text == "" {
			t.Errorf("experiment %s produced empty output", r.ID)
		}
		fmt.Fprintf(&b, "=== %s: %s\n%s\n", r.ID, r.Title, r.Text)
	}
	got := b.String()

	path := filepath.Join("testdata", "experiments_v1.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to generate): %v", err)
	}
	if got != string(want) {
		gl := strings.Split(got, "\n")
		wl := strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("golden mismatch at line %d:\n got %q\nwant %q\n"+
					"if intentional, regenerate with: go test ./internal/experiments -run TestRunAllExperiments -update",
					i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("golden length mismatch: got %d lines, want %d", len(gl), len(wl))
	}
}

func TestVerifyAllChecksPass(t *testing.T) {
	checks, err := sharedRunner.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) < 8 {
		t.Fatalf("only %d checks, want >= 8", len(checks))
	}
	for _, c := range checks {
		if !c.OK {
			t.Errorf("reproduction check failed: %s (%s)", c.Name, c.Got)
		}
	}
}

// TestVerifyValues pins every check's name, verdict and reported value at
// the default dataset seeds, so a change that moves a gated number shows
// here even while its verdict holds.
func TestVerifyValues(t *testing.T) {
	checks, err := sharedRunner.Verify()
	if err != nil {
		t.Fatal(err)
	}
	want := []Check{
		{"raw bits fail NIST", true, "allPass=false"},
		{"distilled bits pass NIST", true, "allPass=true"},
		{"uniqueness near 50%", true, "50.0%"},
		{"configurable n=7 mid-voltage 0% flips", true, "0.00%"},
		{"traditional flips > 5x configurable", true, "trad=27.05%"},
		{"Table V counts (n=5)", true, "conf=48 oo8=12"},
		{"Case-2 keeps 32 bits at Rth=3", true, "32.0"},
		{"traditional loses >1/3 at Rth=3", true, "14.6"},
	}
	if len(checks) != len(want) {
		t.Fatalf("%d checks, want %d: %+v", len(checks), len(want), checks)
	}
	for i, c := range checks {
		if c != want[i] {
			t.Errorf("check %d = %+v, want %+v", i, c, want[i])
		}
	}
}

func TestRunAllParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel sweep in short mode")
	}
	par, err := sharedRunner.RunAllParallel(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(IDs()) {
		t.Fatalf("parallel returned %d results, want %d", len(par), len(IDs()))
	}
	for i, id := range IDs() {
		if par[i] == nil || par[i].ID != id {
			t.Fatalf("result %d out of order: %+v", i, par[i])
		}
		// Determinism: a second run of the same experiment must reproduce
		// the identical report (measurement noise is a pure function of
		// board and environment).
		again, err := sharedRunner.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		if again.Text != par[i].Text {
			t.Errorf("experiment %s is not deterministic across runs", id)
		}
	}
}
