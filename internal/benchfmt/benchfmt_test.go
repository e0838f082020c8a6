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
BenchmarkFleetEnrollSerial-8     	      10	  11908132 ns/op	 4455648 B/op	   53632 allocs/op
BenchmarkFleetEnroll8Workers-8   	      10	   3102938 ns/op	 4460160 B/op	   53650 allocs/op
BenchmarkFleetEvaluate8Workers   	       5	   2000000 ns/op
PASS
ok  	ropuf	1.234s
`

func TestParse(t *testing.T) {
	var echo strings.Builder
	results, err := Parse(strings.NewReader(sample), &echo)
	if err != nil {
		t.Fatal(err)
	}
	if echo.String() != sample {
		t.Fatal("input not echoed through verbatim")
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(results), results)
	}
	serial, ok := results["BenchmarkFleetEnrollSerial"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", results)
	}
	if serial.Iterations != 10 || serial.NsPerOp != 11908132 || serial.BytesPerOp != 4455648 || serial.AllocsPerOp != 53632 {
		t.Fatalf("serial = %+v", serial)
	}
	eval := results["BenchmarkFleetEvaluate8Workers"]
	if eval.NsPerOp != 2000000 || eval.BytesPerOp != 0 {
		t.Fatalf("eval = %+v (no-benchmem line misparsed)", eval)
	}
}

func TestMarshalDeterministic(t *testing.T) {
	results := map[string]Result{
		"BenchmarkB": {Iterations: 1, NsPerOp: 2},
		"BenchmarkA": {Iterations: 3, NsPerOp: 4, AllocsPerOp: 5},
	}
	data, err := Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatalf("invalid JSON:\n%s", data)
	}
	if strings.Index(string(data), "BenchmarkA") > strings.Index(string(data), "BenchmarkB") {
		t.Fatalf("keys not sorted:\n%s", data)
	}
	var decoded map[string]Result
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["BenchmarkA"].AllocsPerOp != 5 {
		t.Fatalf("round trip lost data: %+v", decoded)
	}
}

// TestParseCustomUnits pins that B.ReportMetric units land in Extra — the
// dataset benchmarks publish boards/s and bytes/board this way — and that
// they survive JSON marshalling.
func TestParseCustomUnits(t *testing.T) {
	const line = "BenchmarkStreamVT-8\t5\t240000000 ns/op\t512 B/op\t3 allocs/op\t41.5 boards/s\t35840 bytes/board\n"
	results, err := Parse(strings.NewReader(line), &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	got := results["BenchmarkStreamVT"]
	if got.NsPerOp != 240000000 || got.BytesPerOp != 512 || got.AllocsPerOp != 3 {
		t.Fatalf("standard units misparsed: %+v", got)
	}
	want := map[string]float64{"boards/s": 41.5, "bytes/board": 35840}
	if !reflect.DeepEqual(got.Extra, want) {
		t.Fatalf("Extra = %v, want %v", got.Extra, want)
	}

	data, err := Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]Result
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded["BenchmarkStreamVT"].Extra, want) {
		t.Fatalf("JSON round trip lost extras:\n%s", data)
	}
}
