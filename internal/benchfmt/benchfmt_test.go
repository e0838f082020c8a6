package benchfmt

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: ropuf
cpu: Intel(R) Xeon(R) Processor
BenchmarkFleetEnrollSerial-8     	      10	  11908132 ns/op	 4455648 B/op	   53632 allocs/op
BenchmarkFleetEnroll8Workers-8   	      10	   3102938 ns/op	 4460160 B/op	   53650 allocs/op
BenchmarkFleetEvaluate8Workers   	       5	   2000000 ns/op
PASS
ok  	ropuf	1.234s
`

// f64 returns a pointer to v, for a Sample's optional units.
func f64(v float64) *float64 { return &v }

func TestParse(t *testing.T) {
	var echo strings.Builder
	rec, err := Parse(strings.NewReader(sample), &echo)
	if err != nil {
		t.Fatal(err)
	}
	if echo.String() != sample {
		t.Fatal("input not echoed through verbatim")
	}
	want := Header{GOOS: "linux", GOARCH: "amd64", CPU: "Intel(R) Xeon(R) Processor", GOMAXPROCS: 8}
	if rec.Header != want {
		t.Fatalf("header %+v, want %+v", rec.Header, want)
	}
	if len(rec.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(rec.Benchmarks), rec.Benchmarks)
	}
	serial, ok := rec.Benchmarks["BenchmarkFleetEnrollSerial"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", rec.Benchmarks)
	}
	if serial.Count != 1 || !reflect.DeepEqual(serial.Samples[0], Sample{Iterations: 10, NsPerOp: 11908132, BytesPerOp: f64(4455648), AllocsPerOp: f64(53632)}) {
		t.Fatalf("serial = %+v", serial)
	}
	if serial.NsPerOp != (Stat{11908132, 11908132, 11908132}) || *serial.AllocsPerOp != (Stat{53632, 53632, 53632}) {
		t.Fatalf("serial summary = %+v", serial)
	}
	eval := rec.Benchmarks["BenchmarkFleetEvaluate8Workers"]
	if eval.NsPerOp.Median != 2000000 || eval.BytesPerOp != nil || eval.AllocsPerOp != nil ||
		eval.Samples[0].BytesPerOp != nil || eval.Samples[0].AllocsPerOp != nil {
		t.Fatalf("eval = %+v (no-benchmem line misparsed)", eval)
	}
}

// TestParseKeepsEverySample pins the -count summary: every sample in input
// order, the median (the mean of the middle two for an even count), min
// and max per unit, and a measured zero kept apart from an absent unit.
func TestParseKeepsEverySample(t *testing.T) {
	const out = `BenchmarkNormFill/n=5-2 	 100	 90 ns/op	 0 B/op	 0 allocs/op	 18 ns/value
BenchmarkNormFill/n=5-2 	 100	 110 ns/op	 0 B/op	 0 allocs/op	 22 ns/value
BenchmarkNormFill/n=5-2 	 100	 70 ns/op	 0 B/op	 0 allocs/op	 14 ns/value
BenchmarkNormFill/n=5-2 	 100	 100 ns/op	 0 B/op	 0 allocs/op	 20 ns/value
BenchmarkNormFill/n=5-4 	 100	 60 ns/op
`
	rec, err := Parse(strings.NewReader(out), &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Header.GOMAXPROCS != 2 {
		t.Fatalf("GOMAXPROCS %d, want 2", rec.Header.GOMAXPROCS)
	}
	got := rec.Benchmarks["BenchmarkNormFill/n=5"]
	if got.Count != 4 || len(got.Samples) != 4 || got.Samples[2].NsPerOp != 70 {
		t.Fatalf("samples %+v, want the four GOMAXPROCS=2 lines in order", got.Samples)
	}
	if got.NsPerOp != (Stat{Median: 95, Min: 70, Max: 110}) {
		t.Fatalf("ns/op %+v, want median 95 min 70 max 110", got.NsPerOp)
	}
	if got.AllocsPerOp == nil || *got.AllocsPerOp != (Stat{}) || got.BytesPerOp == nil {
		t.Fatalf("a measured 0 allocs/op must be kept: %+v", got)
	}
	for _, sm := range got.Samples {
		if sm.AllocsPerOp == nil || *sm.AllocsPerOp != 0 || sm.BytesPerOp == nil || *sm.BytesPerOp != 0 {
			t.Fatalf("a sample's measured 0 B/op and allocs/op must be kept: %+v", got.Samples)
		}
	}
	if got.Extra["ns/value"] != (Stat{Median: 19, Min: 14, Max: 22}) {
		t.Fatalf("ns/value %+v", got.Extra["ns/value"])
	}
	if other := rec.Benchmarks["BenchmarkNormFill/n=5-4"]; other.Count != 1 || other.NsPerOp.Median != 60 {
		t.Fatalf("a line at another GOMAXPROCS must keep its suffix: %v", rec.Benchmarks)
	}
}

func TestMarshalDeterministic(t *testing.T) {
	rec := &Record{
		Header: Header{GOOS: "linux", GOARCH: "amd64", CPU: "x", Go: "go1.24.0", GOMAXPROCS: 2},
		Benchmarks: map[string]Result{
			"BenchmarkB": summarize([]line{{sample: Sample{Iterations: 1, NsPerOp: 2}}}),
			"BenchmarkA": summarize([]line{{sample: Sample{Iterations: 3, NsPerOp: 4, AllocsPerOp: f64(0)}}}),
		},
	}
	data, err := Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatalf("invalid JSON:\n%s", data)
	}
	if strings.Index(string(data), "BenchmarkA") > strings.Index(string(data), "BenchmarkB") {
		t.Fatalf("keys not sorted:\n%s", data)
	}
	var decoded Record
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&decoded, rec) {
		t.Fatalf("round trip lost data:\n%s", data)
	}
}

// TestParseCustomUnits pins that B.ReportMetric units land in Extra — the
// dataset benchmarks publish boards/s and bytes/board this way — and that
// they survive JSON marshalling.
func TestParseCustomUnits(t *testing.T) {
	const line = "BenchmarkStreamVT-8\t5\t240000000 ns/op\t512 B/op\t3 allocs/op\t41.5 boards/s\t35840 bytes/board\n"
	rec, err := Parse(strings.NewReader(line), &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	got := rec.Benchmarks["BenchmarkStreamVT"].Samples[0]
	if got.NsPerOp != 240000000 || got.BytesPerOp == nil || *got.BytesPerOp != 512 ||
		got.AllocsPerOp == nil || *got.AllocsPerOp != 3 {
		t.Fatalf("standard units misparsed: %+v", got)
	}
	want := map[string]float64{"boards/s": 41.5, "bytes/board": 35840}
	if !reflect.DeepEqual(got.Extra, want) {
		t.Fatalf("Extra = %v, want %v", got.Extra, want)
	}

	data, err := Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Record
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded.Benchmarks["BenchmarkStreamVT"].Samples[0].Extra, want) {
		t.Fatalf("JSON round trip lost extras:\n%s", data)
	}
	if s := decoded.Benchmarks["BenchmarkStreamVT"].Extra["boards/s"]; s != (Stat{41.5, 41.5, 41.5}) {
		t.Fatalf("boards/s summary %+v", s)
	}
}
