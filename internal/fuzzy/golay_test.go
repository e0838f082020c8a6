package fuzzy

import (
	"math/bits"
	"testing"
	"testing/quick"

	"ropuf/internal/rngx"
)

func TestGolayEncodeSystematic(t *testing.T) {
	for _, data := range []uint16{0, 1, 0xfff, 0xabc, 0x555} {
		cw := GolayEncode(data)
		if uint16(cw>>11)&0xfff != data&0xfff {
			t.Fatalf("data %03x not systematic in codeword %06x", data, cw)
		}
	}
}

func TestGolayCodewordsHaveMinDistance7(t *testing.T) {
	// Spot-check: nonzero codewords have weight >= 7 (linear code ⇒
	// minimum distance equals minimum nonzero weight).
	for data := uint16(1); data < 1<<12; data += 37 { // stride keeps it fast
		w := bits.OnesCount32(GolayEncode(data))
		if w < 7 {
			t.Fatalf("codeword for %03x has weight %d < 7", data, w)
		}
	}
}

func TestGolayDecodeCorrectsUpTo3Errors(t *testing.T) {
	r := rngx.New(1)
	for trial := 0; trial < 2000; trial++ {
		data := uint16(r.Intn(1 << 12))
		cw := GolayEncode(data)
		nErr := r.Intn(4) // 0..3
		e := uint32(0)
		for bits.OnesCount32(e) < nErr {
			e |= 1 << uint(r.Intn(23))
		}
		got, corrected := GolayDecode(cw ^ e)
		if got != data {
			t.Fatalf("trial %d: %d errors not corrected (data %03x -> %03x)", trial, nErr, data, got)
		}
		if corrected != bits.OnesCount32(e) {
			t.Fatalf("trial %d: corrected %d, injected %d", trial, corrected, bits.OnesCount32(e))
		}
	}
}

func TestGolayDecodeFailsBeyond3Errors(t *testing.T) {
	// 4 errors land in a different codeword's sphere: decoding succeeds
	// syntactically but yields wrong data for at least some patterns.
	data := uint16(0x2a5)
	cw := GolayEncode(data)
	wrong := 0
	for a := 0; a < 5; a++ {
		e := uint32(0xf) << uint(a) // four adjacent errors
		got, _ := GolayDecode(cw ^ e)
		if got != data {
			wrong++
		}
	}
	if wrong == 0 {
		t.Fatal("four-bit errors never mis-decoded; code cannot be [23,12,7]")
	}
}

func TestGolaySyndromePerfection(t *testing.T) {
	// Every syndrome must map to a distinct weight ≤ 3 pattern, and the
	// zero syndrome to the zero pattern (perfect code ⇔ table full).
	seen := map[uint32]bool{}
	tbl := golayTable()
	for s, e := range tbl {
		if bits.OnesCount32(e) > 3 {
			t.Fatalf("syndrome %d maps to weight-%d pattern", s, bits.OnesCount32(e))
		}
		if seen[e] {
			t.Fatalf("error pattern %06x appears twice", e)
		}
		seen[e] = true
	}
	if tbl[0] != 0 {
		t.Fatal("zero syndrome must map to no error")
	}
}

func TestGolayGenRepRoundtrip(t *testing.T) {
	w := randomResponse(2, 23*4)
	key, helper, err := GolayGen(w, rngx.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if key.Len() != 48 || helper.Len() != 92 {
		t.Fatalf("key/helper lengths %d/%d, want 48/92", key.Len(), helper.Len())
	}
	got, err := GolayRep(w, helper)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(key) {
		t.Fatal("noiseless reconstruction failed")
	}
}

func TestGolayRepCorrectsThreePerBlock(t *testing.T) {
	w := randomResponse(4, 23*3)
	key, helper, err := GolayGen(w, rngx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	noisy := w.Clone()
	for b := 0; b < 3; b++ {
		for _, off := range []int{0, 7, 19} {
			i := b*23 + off
			noisy.SetBit(i, !noisy.Bit(i))
		}
	}
	got, err := GolayRep(noisy, helper)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(key) {
		t.Fatal("3 errors per block not corrected")
	}
	// A fourth error in block 0 breaks that block's 12 key bits.
	noisy.SetBit(11, !noisy.Bit(11))
	got, err = GolayRep(noisy, helper)
	if err != nil {
		t.Fatal(err)
	}
	if got.Slice(0, 12).Equal(key.Slice(0, 12)) {
		t.Fatal("4 errors unexpectedly corrected")
	}
	if !got.Slice(12, 36).Equal(key.Slice(12, 36)) {
		t.Fatal("other blocks disturbed")
	}
}

func TestGolayValidation(t *testing.T) {
	if _, _, err := GolayGen(randomResponse(6, 10), rngx.New(1)); err == nil {
		t.Fatal("sub-block response accepted")
	}
	w := randomResponse(7, 46)
	_, helper, err := GolayGen(w, rngx.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GolayRep(w.Slice(0, 23), helper); err == nil {
		t.Fatal("short response accepted")
	}
	bad := helper.Slice(0, 20)
	if _, err := GolayRep(w, bad); err == nil {
		t.Fatal("misaligned helper accepted")
	}
}

func TestGolayEncodeDecodeProperty(t *testing.T) {
	check := func(data uint16, errSel uint32) bool {
		data &= 0xfff
		cw := GolayEncode(data)
		// Build an error of weight ≤ 3 from errSel.
		e := uint32(0)
		for i := 0; i < 3; i++ {
			if errSel>>uint(8*i)&1 == 1 {
				e |= 1 << uint((errSel>>uint(8*i+1))%23)
			}
		}
		got, _ := GolayDecode(cw ^ e)
		return got == data
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
