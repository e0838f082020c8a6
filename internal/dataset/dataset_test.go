package dataset

import (
	"bytes"
	"encoding/csv"
	"math"
	"slices"
	"strings"
	"testing"

	"ropuf/internal/rngx"
	"ropuf/internal/silicon"
)

// smallVTConfig keeps generation fast for tests.
func smallVTConfig() VTConfig {
	cfg := DefaultVTConfig()
	cfg.NumBoards = 8
	cfg.NumEnvBoards = 2
	return cfg
}

func TestConditionEnvAndString(t *testing.T) {
	c := Condition{MilliVolts: 1080, DeciCelsius: 455}
	e := c.Env()
	if e.V != 1.08 || e.T != 45.5 {
		t.Fatalf("Env = %+v", e)
	}
	if c.String() != "1.08V/45.5C" {
		t.Fatalf("String = %q", c.String())
	}
}

func TestSweepDefinitions(t *testing.T) {
	vs := VoltageSweep()
	if len(vs) != 5 {
		t.Fatalf("voltage sweep has %d points, want 5", len(vs))
	}
	wantMV := []int{980, 1080, 1200, 1320, 1440}
	for i, c := range vs {
		if c.MilliVolts != wantMV[i] || c.DeciCelsius != 250 {
			t.Fatalf("voltage sweep[%d] = %+v", i, c)
		}
	}
	ts := TemperatureSweep()
	if len(ts) != 5 {
		t.Fatalf("temperature sweep has %d points, want 5", len(ts))
	}
	wantDC := []int{250, 350, 450, 550, 650}
	for i, c := range ts {
		if c.DeciCelsius != wantDC[i] || c.MilliVolts != 1200 {
			t.Fatalf("temperature sweep[%d] = %+v", i, c)
		}
	}
	if vs[2] != NominalCondition || ts[0] != NominalCondition {
		t.Fatal("sweeps must include the nominal condition")
	}
}

func TestGenerateVTShape(t *testing.T) {
	ds, err := GenerateVT(smallVTConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Boards) != 8 {
		t.Fatalf("boards = %d, want 8", len(ds.Boards))
	}
	if len(ds.EnvIDs) != 2 {
		t.Fatalf("env boards = %d, want 2", len(ds.EnvIDs))
	}
	if len(ds.NominalBoards()) != 6 {
		t.Fatalf("nominal boards = %d, want 6", len(ds.NominalBoards()))
	}
	for _, b := range ds.Boards {
		if b.NumROs() != 512 {
			t.Fatalf("board %d has %d ROs, want 512", b.ID, b.NumROs())
		}
		if !b.HasCondition(NominalCondition) {
			t.Fatalf("board %d lacks nominal measurement", b.ID)
		}
	}
	for _, b := range ds.EnvBoards() {
		for _, c := range append(VoltageSweep(), TemperatureSweep()...) {
			if !b.HasCondition(c) {
				t.Fatalf("env board %d lacks condition %v", b.ID, c)
			}
		}
	}
}

// TestPositionsMatchDieLayout holds Board.Positions to the layout the
// silicon model fabricates: RO i of a board is device i of its die, so the
// positions the distiller fits against are where each RO's systematic
// variation was drawn. A non-square grid catches a transposed layout.
func TestPositionsMatchDieLayout(t *testing.T) {
	cfg := DefaultVTConfig()
	cfg.GridW, cfg.GridH = 3, 5
	die, err := silicon.NewDie(cfg.Process, cfg.GridW, cfg.GridH, rngx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	b := &Board{GridW: cfg.GridW, GridH: cfg.GridH}
	xs, ys := b.Positions()
	if len(xs) != die.NumDevices() || len(ys) != die.NumDevices() || b.NumROs() != die.NumDevices() {
		t.Fatalf("%d xs, %d ys and %d ROs for a %d-device die", len(xs), len(ys), b.NumROs(), die.NumDevices())
	}
	for i := range xs {
		if d := die.Device(i); xs[i] != d.X || ys[i] != d.Y {
			t.Fatalf("RO %d at (%d,%d), its die device at (%d,%d)", i, xs[i], ys[i], d.X, d.Y)
		}
	}
}

func TestGenerateVTDeterminism(t *testing.T) {
	a, err := GenerateVT(smallVTConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateVT(smallVTConfig())
	if err != nil {
		t.Fatal(err)
	}
	fa := a.Boards[3].Freq[NominalCondition]
	fb := b.Boards[3].Freq[NominalCondition]
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("RO %d frequency differs across same-seed generations", i)
		}
	}
	cfg := smallVTConfig()
	cfg.Seed++
	c, err := GenerateVT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	fc := c.Boards[3].Freq[NominalCondition]
	for i := range fa {
		if fa[i] == fc[i] {
			same++
		}
	}
	if same == len(fa) {
		t.Fatal("different seeds produced identical frequencies")
	}
}

func TestGenerateVTFrequenciesPlausible(t *testing.T) {
	ds, err := GenerateVT(smallVTConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := ds.Boards[0].Freq[NominalCondition]
	for i, v := range f {
		if v < 60 || v > 140 {
			t.Fatalf("RO %d frequency %.2f MHz implausible", i, v)
		}
	}
	// Lower voltage must slow every RO (noise is far below the shift).
	env := ds.EnvBoards()[0]
	low := env.Freq[Condition{980, 250}]
	nom := env.Freq[NominalCondition]
	slower := 0
	for i := range nom {
		if low[i] < nom[i] {
			slower++
		}
	}
	if slower < len(nom)*99/100 {
		t.Fatalf("only %d/%d ROs slowed at 0.98V", slower, len(nom))
	}
}

func TestPeriodsPS(t *testing.T) {
	ds, err := GenerateVT(smallVTConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := ds.Boards[0]
	p, err := b.PeriodsPS(NominalCondition)
	if err != nil {
		t.Fatal(err)
	}
	f := b.Freq[NominalCondition]
	for i := range p {
		if math.Abs(p[i]*f[i]-1e6) > 1e-3 {
			t.Fatalf("period×freq = %.6f, want 1e6", p[i]*f[i])
		}
	}
	if _, err := b.PeriodsPS(Condition{1, 1}); err == nil {
		t.Fatal("PeriodsPS accepted missing condition")
	}
}

func TestBoardLookupAndConditions(t *testing.T) {
	ds, err := GenerateVT(smallVTConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Board(3); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Board(999); err == nil {
		t.Fatal("Board accepted unknown ID")
	}
	env := ds.EnvBoards()[0]
	conds := env.Conditions()
	if conds[0] != NominalCondition {
		t.Fatal("Conditions must list nominal first")
	}
	seen := map[Condition]bool{}
	for _, c := range conds {
		if seen[c] {
			t.Fatalf("condition %v listed twice", c)
		}
		seen[c] = true
	}
	if len(conds) != len(env.Freq) {
		t.Fatalf("Conditions lists %d entries, board has %d", len(conds), len(env.Freq))
	}
}

// TestConditionsOrdersExtraConditions pins the order of conditions outside
// the nominal point and the two sweeps: by (MilliVolts, DeciCelsius), so
// the shard encoder and the CSV writer emit such a board the same way on
// every run instead of in map iteration order.
func TestConditionsOrdersExtraConditions(t *testing.T) {
	b := &Board{
		ID: 1, GridW: 2, GridH: 1,
		Freq: map[Condition][]float64{
			{1200, 850}:      {1, 2},
			{900, 250}:       {3, 4},
			{1080, 250}:      {5, 6},
			NominalCondition: {7, 8},
			{1200, -100}:     {9, 10},
			{900, 100}:       {11, 12},
		},
	}
	want := []Condition{NominalCondition, {1080, 250}, {900, 100}, {900, 250}, {1200, -100}, {1200, 850}}
	body, err := appendBinBoard(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	csvRows := func() string {
		var out strings.Builder
		cw := csv.NewWriter(&out)
		if _, err := writeCSVBoard(cw, b); err != nil {
			t.Fatal(err)
		}
		cw.Flush()
		return out.String()
	}
	rows := csvRows()
	for run := 0; run < 200; run++ {
		if got := b.Conditions(); !slices.Equal(got, want) {
			t.Fatalf("run %d: Conditions() = %v, want %v", run, got, want)
		}
		again, err := appendBinBoard(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, body) {
			t.Fatalf("run %d: the board encoded differently from the first run", run)
		}
		if csvRows() != rows {
			t.Fatalf("run %d: the board's CSV rows differ from the first run", run)
		}
	}
}

// TestCSVWriterRejectsGridMismatch requires the CSV export to refuse, as
// the shard encoder does, a condition vector whose length is not the
// board's GridW·GridH, since the grid is what gives each row its x,y.
func TestCSVWriterRejectsGridMismatch(t *testing.T) {
	for _, freqs := range [][]float64{{1, 2, 3}, {1}} {
		b := &Board{ID: 4, GridW: 2, GridH: 1, Freq: map[Condition][]float64{NominalCondition: freqs}}
		var out strings.Builder
		cw := csv.NewWriter(&out)
		_, err := writeCSVBoard(cw, b)
		if err == nil || !strings.Contains(err.Error(), "its 2x1 grid 2") {
			t.Fatalf("%d frequencies on a 2x1 grid: %v", len(freqs), err)
		}
	}
}

func TestVTConfigValidation(t *testing.T) {
	mutations := []func(*VTConfig){
		func(c *VTConfig) { c.NumBoards = 0 },
		func(c *VTConfig) { c.NumEnvBoards = -1 },
		func(c *VTConfig) { c.NumEnvBoards = c.NumBoards + 1 },
		func(c *VTConfig) { c.GridW = 0 },
		func(c *VTConfig) { c.NoiseMHz = -1 },
		func(c *VTConfig) { c.Process.NominalDelayPS = -5 },
	}
	for i, mutate := range mutations {
		cfg := smallVTConfig()
		mutate(&cfg)
		if _, err := GenerateVT(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestGroupBitsPerBoardTableV(t *testing.T) {
	want := map[int][2]int{
		3: {80, 20},
		5: {48, 12},
		7: {32, 8},
		9: {24, 6},
	}
	for n, w := range want {
		conf, oo8, err := GroupBitsPerBoard(512, n)
		if err != nil {
			t.Fatal(err)
		}
		if conf != w[0] || oo8 != w[1] {
			t.Errorf("n=%d: got (%d,%d), want (%d,%d)", n, conf, oo8, w[0], w[1])
		}
	}
	if _, _, err := GroupBitsPerBoard(512, 0); err == nil {
		t.Error("accepted n=0")
	}
	if _, _, err := GroupBitsPerBoard(4, 3); err == nil {
		t.Error("accepted too few ROs")
	}
	// Tiny boards skip the multiple-of-8 rounding.
	conf, _, err := GroupBitsPerBoard(20, 5)
	if err != nil || conf != 2 {
		t.Errorf("tiny board: conf=%d err=%v, want 2", conf, err)
	}
}

func TestGenerateInHouseShape(t *testing.T) {
	cfg := DefaultInHouseConfig()
	cfg.NumBoards = 2
	cfg.RingsPerBoard = 8
	boards, err := GenerateInHouse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(boards) != 2 {
		t.Fatalf("boards = %d, want 2", len(boards))
	}
	for _, b := range boards {
		if len(b.Rings) != 8 {
			t.Fatalf("board %d rings = %d, want 8", b.ID, len(b.Rings))
		}
		if b.NumPairs() != 4 {
			t.Fatalf("board %d pairs = %d, want 4", b.ID, b.NumPairs())
		}
		for _, r := range b.Rings {
			if r.NumStages() != cfg.StagesPerRing {
				t.Fatalf("ring has %d stages, want %d", r.NumStages(), cfg.StagesPerRing)
			}
		}
	}
}

func TestInHouseMeasurePairs(t *testing.T) {
	cfg := DefaultInHouseConfig()
	cfg.NumBoards = 1
	cfg.RingsPerBoard = 4
	boards, err := GenerateInHouse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := boards[0].MeasurePairs(silicon.Nominal)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 {
		t.Fatalf("pairs = %d, want 2", len(pairs))
	}
	for _, p := range pairs {
		if len(p.Alpha) != cfg.StagesPerRing || len(p.Beta) != cfg.StagesPerRing {
			t.Fatal("pair delay vector lengths wrong")
		}
		for _, v := range p.Alpha {
			// ddiff = inverter + mux1 − wire ≈ positive and of order the
			// inverter delay.
			if v < 0 || v > 3*cfg.Process.NominalDelayPS {
				t.Fatalf("implausible measured ddiff %.2f", v)
			}
		}
	}
}

func TestInHouseFullRingDelays(t *testing.T) {
	cfg := DefaultInHouseConfig()
	cfg.NumBoards = 1
	cfg.RingsPerBoard = 4
	boards, err := GenerateInHouse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	delays, err := boards[0].FullRingDelays(silicon.Nominal)
	if err != nil {
		t.Fatal(err)
	}
	if len(delays) != 4 {
		t.Fatalf("delays = %d, want 4", len(delays))
	}
	// 13 stages at ~(120+72) ps each plus enable: roughly 2.3–2.8 ns.
	for i, d := range delays {
		if d < 1500 || d > 4000 {
			t.Fatalf("ring %d full delay %.1f ps implausible", i, d)
		}
	}
}

func TestInHouseConfigValidation(t *testing.T) {
	mutations := []func(*InHouseConfig){
		func(c *InHouseConfig) { c.NumBoards = 0 },
		func(c *InHouseConfig) { c.RingsPerBoard = 3 }, // odd
		func(c *InHouseConfig) { c.RingsPerBoard = 0 },
		func(c *InHouseConfig) { c.StagesPerRing = 0 },
		func(c *InHouseConfig) { c.MeterRepeats = 0 },
		func(c *InHouseConfig) { c.MeterNoisePS = -1 },
	}
	for i, mutate := range mutations {
		cfg := DefaultInHouseConfig()
		mutate(&cfg)
		if _, err := GenerateInHouse(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestInHouseMeasurementDeterministicPerEnv(t *testing.T) {
	cfg := DefaultInHouseConfig()
	cfg.NumBoards = 1
	cfg.RingsPerBoard = 4
	boards, err := GenerateInHouse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := boards[0]
	a1, err := b.MeasurePairs(silicon.Nominal)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := b.MeasurePairs(silicon.Nominal)
	if err != nil {
		t.Fatal(err)
	}
	for p := range a1 {
		for i := range a1[p].Alpha {
			if a1[p].Alpha[i] != a2[p].Alpha[i] {
				t.Fatal("repeated measurement at one environment not reproducible")
			}
		}
	}
	// A different environment draws an independent noise realization (and
	// a different physical value).
	low, err := b.MeasurePairs(silicon.Env{V: 0.98, T: 25})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for p := range a1 {
		for i := range a1[p].Alpha {
			if a1[p].Alpha[i] == low[p].Alpha[i] {
				same++
			}
		}
	}
	if same > 0 {
		t.Fatalf("%d identical measurements across environments", same)
	}
}
