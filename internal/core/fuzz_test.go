package core

import (
	"bytes"
	"runtime"
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
