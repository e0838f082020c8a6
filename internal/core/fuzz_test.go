package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"
)

// FuzzEnrollmentBinary holds the binary enrollment codec to four
// properties on arbitrary bytes: decoding never panics; it allocates at
// most a small multiple of its input, so a hostile count cannot size an
// allocation; a body LoadEnrollmentBinary accepts re-encodes byte for
// byte; and ScanEnrollmentBinary, the verifier's in-place walk, accepts
// exactly the bodies LoadEnrollmentBinary accepts and reads from them the
// same pair count, mask and reference bits.
func FuzzEnrollmentBinary(f *testing.F) {
	for _, n := range []int{8, 10} {
		enr, err := Enroll(binaryTestPairs(f, n, 13, 0xB4), Case2, 0, Options{})
		if err != nil {
			f.Fatal(err)
		}
		body, err := enr.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		for _, mutant := range nonCanonical(f, body) {
			f.Add(mutant)
		}
	}
	f.Add(nanThresholdBody(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		enr, err := LoadEnrollmentBinary(data)
		n, mask, ref, scanErr := ScanEnrollmentBinary(data)
		runtime.ReadMemStats(&ms)
		if grew := ms.TotalAlloc - before; grew > 1<<20+64*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), grew)
		}
		if (err == nil) != (scanErr == nil) {
			t.Fatalf("LoadEnrollmentBinary err %v, ScanEnrollmentBinary err %v", err, scanErr)
		}
		if err != nil {
			return
		}
		again, err := enr.AppendBinary(nil)
		if err != nil {
			t.Fatalf("re-encoding an accepted body: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted body re-encodes to different bytes:\n got %x\nwant %x", again, data)
		}
		if n != len(enr.Selections) {
			t.Fatalf("scan read %d pairs, decode %d", n, len(enr.Selections))
		}
		for i, sel := range enr.Selections {
			if mask[i/64]>>(i%64)&1 != 0 != enr.Mask[i] || ref[i/64]>>(i%64)&1 != 0 != sel.Bit {
				t.Fatalf("pair %d: scan and decode disagree on its mask or reference bit", i)
			}
		}
	})
}

// FuzzAscIdx holds the stage order to the stable order on rings of up to
// 40 delays read from the input (8 little-endian bytes each; a ring with a
// NaN is skipped, since selection rejects one before it sorts). The binary
// enroll wire hands ascIdx such delays under a shard lock.
func FuzzAscIdx(f *testing.F) {
	ring := func(v ...float64) []byte {
		var b []byte
		for _, x := range v {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	f.Add(ring(2, negZero, 1, 0, 2, 3, 1, negZero, 0, 3))   // tie-rich
	f.Add(ring(-200, 201, -199.5, 200, 0, -200))            // mixed signs
	f.Add(ring(1.5, 3, 1.999, 2, 0.5, 2.5))                 // both sides of 2
	f.Add(ring(200, 201, 200, 199, 202, 200, 198, 201, 199, // 16 stages
		200, 203, 197, 200, 201, 199, 200))
	f.Add(ring(200, 201, 200, 199, 202, 200, 198, 201, 199, // 17 stages
		200, 203, 197, 200, 201, 199, 200, 196))
	f.Fuzz(func(t *testing.T, data []byte) {
		v := make([]float64, 0, 40)
		for len(data) >= 8 && len(v) < 40 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data))
			if math.IsNaN(x) {
				return
			}
			v = append(v, x)
			data = data[8:]
		}
		if got, want := ascIdx(nil, v), stableAscIdx(v); !slices.Equal(got, want) {
			t.Fatalf("ascIdx %v, stable order %v\nv=%v", got, want, v)
		}
	})
}
