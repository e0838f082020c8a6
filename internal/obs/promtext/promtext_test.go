package promtext_test

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"ropuf/internal/obs"
	"ropuf/internal/obs/flight"
	"ropuf/internal/obs/promtext"
)

func TestParseBasic(t *testing.T) {
	in := `# HELP reqs_total Requests.
# TYPE reqs_total counter
reqs_total{route="verify",code="200"} 42
reqs_total{route="enroll",code="200"} 7
# TYPE depth gauge
depth 3.5
# a stray comment
untyped_thing 1 1700000000000
`
	fams, err := promtext.Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 3 {
		t.Fatalf("got %d families, want 3", len(fams))
	}
	if fams[0].Name != "reqs_total" || fams[0].Type != "counter" || fams[0].Help != "Requests." {
		t.Fatalf("family 0: %+v", fams[0])
	}
	if len(fams[0].Samples) != 2 || fams[0].Samples[0].Value != 42 ||
		fams[0].Samples[0].Labels["route"] != "verify" {
		t.Fatalf("counter samples: %+v", fams[0].Samples)
	}
	if fams[1].Name != "depth" || fams[1].Samples[0].Value != 3.5 {
		t.Fatalf("gauge: %+v", fams[1])
	}
	if fams[2].Type != "untyped" || fams[2].Samples[0].Value != 1 {
		t.Fatalf("untyped: %+v", fams[2])
	}
}

func TestParseHistogramGrouping(t *testing.T) {
	in := `# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.01"} 3
lat_seconds_bucket{le="0.1"} 5
lat_seconds_bucket{le="+Inf"} 6
lat_seconds_sum 0.9
lat_seconds_count 6
`
	fams, err := promtext.Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 {
		t.Fatalf("histogram pieces must attach to one family, got %d", len(fams))
	}
	ff, err := promtext.Assemble(fams)
	if err != nil {
		t.Fatal(err)
	}
	if len(ff) != 1 || ff[0].Kind != flight.Histogram || len(ff[0].Series) != 1 {
		t.Fatalf("assembled: %+v", ff)
	}
	s := ff[0].Series[0]
	if s.Count != 6 || s.Sum != 0.9 || len(s.Buckets) != 3 {
		t.Fatalf("series: %+v", s)
	}
	if !math.IsInf(s.Buckets[2].UpperBound, 1) || s.Buckets[2].Count != 6 {
		t.Fatalf("+Inf bucket: %+v", s.Buckets[2])
	}
}

func TestParseSpecialValues(t *testing.T) {
	in := "a +Inf\nb -Inf\nc NaN\n"
	fams, err := promtext.Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(fams[0].Samples[0].Value, 1) ||
		!math.IsInf(fams[1].Samples[0].Value, -1) ||
		!math.IsNaN(fams[2].Samples[0].Value) {
		t.Fatalf("specials misparsed: %+v", fams)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"html not metrics", "<html><body>hi</body></html>\n"},
		{"missing value", "reqs_total{route=\"a\"}\n"},
		{"bad value", "reqs_total twelve\n"},
		{"unterminated label value", `reqs_total{route="a 1` + "\n"},
		{"unknown escape", `reqs_total{route="a\t"} 1` + "\n"},
		{"dangling backslash", `reqs_total{route="a\` + "\n"},
		{"label without equals", "reqs_total{route} 1\n"},
		{"bad type", "# TYPE x zebra\n"},
		{"bad timestamp", "x 1 notatime\n"},
		{"bucket without le", "# TYPE h histogram\nh_bucket 3\nh_sum 1\nh_count 3\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fams, err := promtext.Parse(strings.NewReader(tc.in))
			if err == nil {
				// bucket-without-le only fails at Assemble time.
				if _, err = promtext.Assemble(fams); err == nil {
					t.Fatalf("parsed garbage without error: %+v", fams)
				}
			}
		})
	}
}

// TestRoundTripHostileLabels is the pin between writer and reader: a
// registry holding label values that exercise every escape (and bytes
// the format leaves alone, like tabs and unicode) must survive
// WriteProm → Parse → Assemble bit-identically. This is the test that
// catches an exposition-side escaping regression.
func TestRoundTripHostileLabels(t *testing.T) {
	hostile := []string{
		`plain`,
		`has"quote`,
		`back\slash`,
		"new\nline",
		`both\"and` + "\n",
		"tab\tchar",
		"unicode-héllo-世界",
		`trailing\`,
		``,
	}
	reg := obs.NewRegistry()
	cv := reg.NewCounterVec("rt_requests_total", "round-trip counter", "val")
	gv := reg.NewGaugeVec("rt_depth", "round-trip gauge", "val")
	hv := reg.NewHistogramVec("rt_lat_seconds", "round-trip histogram",
		[]float64{0.01, 0.1, 1}, "val")
	for i, v := range hostile {
		cv.With(v).Add(int64(i + 1))
		gv.With(v).Set(float64(i) + 0.5)
		for j := 0; j <= i; j++ {
			hv.With(v).Observe(0.05 * float64(j))
		}
	}

	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := promtext.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parsing our own exposition: %v\n--- exposition ---\n%s", err, buf.String())
	}
	got, err := promtext.Assemble(fams)
	if err != nil {
		t.Fatal(err)
	}
	want := reg.Snapshot()
	normalize(got)
	normalize(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip drifted.\ngot:  %+v\nwant: %+v\n--- exposition ---\n%s",
			got, want, buf.String())
	}
}

// normalize irons out representation differences that carry no meaning:
// nil vs empty label maps and float sums that reparse to the same value.
func normalize(fams []flight.Family) {
	for i := range fams {
		for j := range fams[i].Series {
			if len(fams[i].Series[j].Labels) == 0 {
				fams[i].Series[j].Labels = nil
			}
		}
	}
}

// TestRoundTripUnlabeled covers the no-label exposition forms.
func TestRoundTripUnlabeled(t *testing.T) {
	reg := obs.NewRegistry()
	reg.NewCounter("plain_total", "c").Add(9)
	reg.NewGauge("plain_gauge", "g").Set(-2.25)
	h := reg.NewHistogram("plain_seconds", "h", []float64{0.5, 5})
	h.Observe(0.1)
	h.Observe(7)

	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := promtext.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	got, err := promtext.Assemble(fams)
	if err != nil {
		t.Fatal(err)
	}
	want := reg.Snapshot()
	normalize(got)
	normalize(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip drifted.\ngot:  %+v\nwant: %+v\n%s", got, want, buf.String())
	}
}
