package authserve

import (
	"bytes"
	"math"
	"net/http"
	"runtime"
	"testing"

	"ropuf/internal/core"
	"ropuf/internal/fleet"
)

// claimsMaxPairs is a 10-byte binary enroll body whose header claims the
// wire limit of 2^20 pairs and whose body holds none.
var claimsMaxPairs = []byte{'R', 'E', enrollWireVersion, 0, 0, 0, 0, 0, 0x10, 0}

// withNonUTF8ID returns a binary enroll body for pairs under the device ID
// "dev\xff\xfe", which is not valid UTF-8 and which AppendEnrollBinary
// refuses to encode.
func withNonUTF8ID(t testing.TB, pairs []PairWire) []byte {
	t.Helper()
	body, err := AppendEnrollBinary(nil, &EnrollRequest{ID: "dev-x", Pairs: pairs})
	if err != nil {
		t.Fatal(err)
	}
	copy(body[6:], "dev\xff\xfe")
	return body
}

// TestBinaryEnrollWire pins that the binary enroll encoding is
// semantically identical to the JSON body: the same device enrolled
// through either path yields the same enrollment summary, and the binary
// path feeds the normal challenge/verify flow.
func TestBinaryEnrollWire(t *testing.T) {
	devices, _ := testFleet(t, 2, 16)
	_, ts := newTestServer(t, StoreOptions{Seed: 7}, ServerOptions{})
	c := ts.Client()

	// Device 0 via JSON, device 1 via binary.
	code, jsonBody := post(t, c, ts.URL+"/v1/enroll", enrollBody(devices[0]))
	if code != http.StatusOK {
		t.Fatalf("json enroll = %d %s", code, jsonBody)
	}
	req := EnrollRequest{ID: devices[1].ID, Mode: "case2"}
	for _, p := range devices[1].Pairs {
		req.Pairs = append(req.Pairs, PairWire{Alpha: p.Alpha, Beta: p.Beta})
	}
	bin, err := AppendEnrollBinary(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	httpReq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/enroll", bytes.NewReader(bin))
	httpReq.Header.Set("Content-Type", EnrollContentTypeBinary)
	resp, err := c.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary enroll = %d", resp.StatusCode)
	}
	var binResp, jsonResp EnrollResponse
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	binResp = mustUnmarshal[EnrollResponse](t, buf.Bytes())
	jsonResp = mustUnmarshal[EnrollResponse](t, jsonBody)
	// Devices from the same synthetic fleet parameters enroll to the same
	// shape; only the IDs differ.
	if binResp.Pairs != jsonResp.Pairs || binResp.ID != devices[1].ID {
		t.Fatalf("binary enroll response %+v vs json %+v", binResp, jsonResp)
	}

	// Round-trip through the decoder directly: the parsed request must
	// match what was encoded.
	var back EnrollRequest
	if _, err := decodeEnrollBinary(bin, &back, nil); err != nil {
		t.Fatal(err)
	}
	if back.ID != req.ID || back.Mode != req.Mode || len(back.Pairs) != len(req.Pairs) {
		t.Fatalf("decode round-trip = %+v", back)
	}
	for i := range back.Pairs {
		for s := range back.Pairs[i].Alpha {
			if back.Pairs[i].Alpha[s] != req.Pairs[i].Alpha[s] || back.Pairs[i].Beta[s] != req.Pairs[i].Beta[s] {
				t.Fatalf("pair %d stage %d delays diverge", i, s)
			}
		}
	}

	// Hostile bodies answer 400, not 500 or a hang. The non-UTF-8 ID
	// carries a real device's pairs, so only the ID can refuse it.
	if _, err := AppendEnrollBinary(nil, &EnrollRequest{ID: "dev\xff\xfe"}); err == nil {
		t.Error("AppendEnrollBinary encoded a device ID that is not valid UTF-8")
	}
	for name, body := range map[string][]byte{
		"truncated":           bin[:len(bin)/2],
		"garbage":             []byte("REnot really"),
		"empty":               nil,
		"pairs beyond body":   claimsMaxPairs,
		"non-UTF-8 device ID": withNonUTF8ID(t, req.Pairs),
	} {
		hr, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/enroll", bytes.NewReader(body))
		hr.Header.Set("Content-Type", EnrollContentTypeBinary)
		resp, err := c.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s binary body = %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestEnrollBinaryPairCountBeyondBody pins that a header's pair count is
// checked against the bytes that follow before the pairs are allocated:
// a 10-byte body claiming 2^20 pairs of 48 B each is rejected cheaply.
func TestEnrollBinaryPairCountBeyondBody(t *testing.T) {
	var req EnrollRequest
	var err error
	grew := heapAllocated(1, func() { _, err = decodeEnrollBinary(claimsMaxPairs, &req, nil) })
	if err == nil {
		t.Fatal("10-byte body claiming 2^20 pairs decoded")
	}
	if grew > 1<<20 {
		t.Fatalf("rejecting a 10-byte body allocated %d bytes", grew)
	}
}

// binaryEnrollBody encodes device d's pairs as a Case-2 binary enroll
// body under the given ID.
func binaryEnrollBody(t testing.TB, d fleet.Device, id string) []byte {
	t.Helper()
	req := EnrollRequest{ID: id, Mode: "case2"}
	for _, p := range d.Pairs {
		req.Pairs = append(req.Pairs, PairWire{Alpha: p.Alpha, Beta: p.Beta})
	}
	body, err := AppendEnrollBinary(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// heapAllocated returns the heap bytes fn allocates, the least of runs
// runs; the least filters out what other goroutines allocate meanwhile.
// It reads runtime.ReadMemStats, which flushes every P's allocation
// cache, so small objects count at once; the runtime/metrics counter
// /gc/heap/allocs:bytes sees them only when a cache is flushed, and read
// 0 B for a 128-pair × 13-stage decode.
func heapAllocated(runs int, fn func()) uint64 {
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range runs {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestEnrollBinaryDecodeAllocs gates the decode of a paper-shaped body
// (128 pairs × 13 stages, 27 KB). With a cold float buffer it allocates
// the backing array, the pair slice and the ID: at most 1.5× the body in
// at most 4 allocations. Reading into a fresh vector per α and β took 272
// allocations and 5.5× the body. Handed the backing it returned, a second
// decode allocates no floats, and each vector it carves ends at its own
// length.
func TestEnrollBinaryDecodeAllocs(t *testing.T) {
	devices, _ := testFleet(t, 1, 128)
	body := binaryEnrollBody(t, devices[0], devices[0].ID)
	var req EnrollRequest
	var floats []float64
	var err error
	cold := heapAllocated(3, func() { floats, err = decodeEnrollBinary(body, &req, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if limit := uint64(len(body)) * 3 / 2; cold > limit {
		t.Errorf("cold decode of a %d B body allocated %d B, want at most %d", len(body), cold, limit)
	}
	// The backing alone is 128 × 26 floats: a counter that misses small
	// allocations reads less.
	if cold < 30000 {
		t.Errorf("heapAllocated read %d B for a cold decode that allocates a 26,624 B backing and its pairs", cold)
	}
	if n := testing.AllocsPerRun(20, func() { _, err = decodeEnrollBinary(body, &req, nil) }); n > 4 {
		t.Errorf("cold decode made %v allocations, want at most 4", n)
	}
	warm := heapAllocated(3, func() { _, err = decodeEnrollBinary(body, &req, floats) })
	if err != nil {
		t.Fatal(err)
	}
	if warm >= uint64(len(body))/2 {
		t.Errorf("decode into a warm backing allocated %d B of a %d B body", warm, len(body))
	}
	beta := req.Pairs[0].Beta[0]
	_ = append(req.Pairs[0].Alpha, -1)
	if req.Pairs[0].Beta[0] != beta {
		t.Error("appending to a decoded α overwrote the β after it in the backing")
	}
}

// TestBinaryEnrollReusesBackingAcrossShapes enrolls a 13-stage and then a
// 5-stage device through the binary wire, one after the other, so the
// second request may decode into the backing the first one grew. Each
// answer must carry the pair and bit counts an in-process core.Enroll of
// the same measurements yields.
func TestBinaryEnrollReusesBackingAcrossShapes(t *testing.T) {
	long, _ := testFleet(t, 1, 128)
	short, err := fleet.Synthetic(1, 128, 5, 0x5EED)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, StoreOptions{}, ServerOptions{})
	c := ts.Client()
	for _, dev := range []struct {
		id string
		d  fleet.Device
	}{{"dev-13", long[0]}, {"dev-5", short[0]}} {
		want, err := core.Enroll(dev.d.Pairs, core.Case2, 0, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		hr, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/enroll", bytes.NewReader(binaryEnrollBody(t, dev.d, dev.id)))
		hr.Header.Set("Content-Type", EnrollContentTypeBinary)
		resp, err := c.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: binary enroll = %d %s", dev.id, resp.StatusCode, buf.Bytes())
		}
		got := mustUnmarshal[EnrollResponse](t, buf.Bytes())
		if got.ID != dev.id || got.Pairs != len(want.Selections) || got.Bits != want.NumBits() {
			t.Fatalf("%s: answered %+v, want %d pairs and %d bits", dev.id, got, len(want.Selections), want.NumBits())
		}
	}
}

// FuzzEnrollBinary holds the binary enroll decoder, which has no reference
// decoder to be diffed against, to two properties on arbitrary input: it
// errors or decodes within FuzzShardBin's allocation bound, and a body it
// accepts re-encodes byte-identically through AppendEnrollBinary.
func FuzzEnrollBinary(f *testing.F) {
	pairs := []PairWire{
		{Alpha: []float64{1.5, -2, math.Inf(1)}, Beta: []float64{0, math.NaN(), 3}},
		{Alpha: nil, Beta: []float64{1e-300}},
	}
	valid, err := AppendEnrollBinary(nil, &EnrollRequest{ID: "dev-0001", Mode: "case1", Pairs: pairs})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // truncated mid-pair
	f.Add(claimsMaxPairs)
	f.Add(withNonUTF8ID(f, pairs))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req EnrollRequest
		var err error
		// One run per input: the bound is loose, and the fuzzer's speed is
		// what finds inputs.
		grew := heapAllocated(1, func() { _, err = decodeEnrollBinary(data, &req, nil) })
		if grew > 1<<20+64*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		back, err := AppendEnrollBinary(nil, &req)
		if err != nil {
			t.Fatalf("accepted body does not re-encode: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("re-encoded body differs:\n got %x\nwant %x", back, data)
		}
	})
}
