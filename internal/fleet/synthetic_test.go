package fleet

import (
	"fmt"
	"math"
	"testing"

	"ropuf/internal/core"
	"ropuf/internal/rngx"
)

// syntheticPerPair is Synthetic as it was when each pair had its own fill
// of 2·stages values. It is the oracle for the one fill per device.
func syntheticPerPair(numDevices, pairsPerDevice, stages int, seed uint64) []Device {
	devices := make([]Device, numDevices)
	buf := make([]float64, 2*stages)
	for d := range devices {
		r := deviceRNG(seed, d)
		pairs := make([]core.Pair, pairsPerDevice)
		backing := make([]float64, 2*stages*pairsPerDevice)
		for p := range pairs {
			r.NormFill(buf, 200, 5)
			alpha := backing[2*stages*p : 2*stages*p+stages : 2*stages*p+stages]
			beta := backing[2*stages*p+stages : 2*stages*(p+1) : 2*stages*(p+1)]
			for s := 0; s < stages; s++ {
				alpha[s] = buf[2*s]
				beta[s] = buf[2*s+1]
			}
			pairs[p] = core.Pair{Alpha: alpha, Beta: beta}
		}
		devices[d] = Device{ID: fmt.Sprintf("dev-%04d", d), Pairs: pairs}
	}
	return devices
}

// remeasurePerVector is Remeasure as it was when each α and β vector had
// its own fill. It is the oracle for the one fill per device.
func remeasurePerVector(d Device, sigmaPS float64, seed uint64) []core.Pair {
	r := rngx.New(seed).Split()
	out := make([]core.Pair, len(d.Pairs))
	for p, pair := range d.Pairs {
		alpha := make([]float64, len(pair.Alpha))
		beta := make([]float64, len(pair.Beta))
		r.NormFill(alpha, 0, sigmaPS)
		for i, v := range pair.Alpha {
			alpha[i] += v
		}
		r.NormFill(beta, 0, sigmaPS)
		for i, v := range pair.Beta {
			beta[i] += v
		}
		out[p] = core.Pair{Alpha: alpha, Beta: beta}
	}
	return out
}

func samePairs(t *testing.T, what string, got, want []core.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", what, len(got), len(want))
	}
	for p := range want {
		for _, v := range []struct {
			name      string
			got, want []float64
		}{{"alpha", got[p].Alpha, want[p].Alpha}, {"beta", got[p].Beta, want[p].Beta}} {
			if len(v.got) != len(v.want) || cap(v.got) != len(v.got) {
				t.Fatalf("%s: pair %d %s has len %d cap %d, want len %d and no spare capacity",
					what, p, v.name, len(v.got), cap(v.got), len(v.want))
			}
			for s := range v.want {
				if math.Float64bits(v.got[s]) != math.Float64bits(v.want[s]) {
					t.Fatalf("%s: pair %d %s[%d] = %v, want %v", what, p, v.name, s, v.got[s], v.want[s])
				}
			}
		}
	}
}

// TestSyntheticMatchesPerPairFills holds Synthetic and Remeasure to the
// per-pair and per-vector fills they replace, bit for bit, for odd and
// even stage counts and device totals.
func TestSyntheticMatchesPerPairFills(t *testing.T) {
	for _, shape := range [][3]int{{1, 1, 1}, {2, 1, 2}, {3, 3, 5}, {2, 7, 4}, {2, 16, 13}, {1, 128, 13}, {2, 5, 64}} {
		devices, pairs, stages := shape[0], shape[1], shape[2]
		what := fmt.Sprintf("%d devices × %d pairs × %d stages", devices, pairs, stages)
		got, err := Synthetic(devices, pairs, stages, 11)
		if err != nil {
			t.Fatal(err)
		}
		want := syntheticPerPair(devices, pairs, stages, 11)
		for d := range want {
			if got[d].ID != want[d].ID {
				t.Fatalf("%s: device %d ID %q, want %q", what, d, got[d].ID, want[d].ID)
			}
			samePairs(t, what, got[d].Pairs, want[d].Pairs)
			for _, sigma := range []float64{0, 0.5, 2} {
				samePairs(t, what+" remeasured", Remeasure(got[d], sigma, uint64(d)+3), remeasurePerVector(want[d], sigma, uint64(d)+3))
			}
		}
	}
	// A device whose vectors differ in length, some of them odd or empty.
	ragged := Device{ID: "ragged", Pairs: []core.Pair{
		{Alpha: []float64{1, 2, 3}, Beta: []float64{4, 5}},
		{Alpha: []float64{}, Beta: []float64{6}},
		{Alpha: make([]float64, 9), Beta: make([]float64, 12)},
	}}
	samePairs(t, "ragged device", Remeasure(ragged, 1.5, 9), remeasurePerVector(ragged, 1.5, 9))
}
