package fuzzy

import (
	"fmt"
	"math/bits"
	"sync"

	bitstream "ropuf/internal/bits"
	"ropuf/internal/rngx"
)

// Binary Golay code [23, 12, 7]: a perfect code correcting up to 3 errors
// per 23-bit block. As a code-offset fuzzy extractor it yields 12 key bits
// per 23 response bits (rate 0.52) versus the repetition extractor's rate
// 1/3 with only 1-error correction — the classical choice for RO-PUF key
// generation when the raw bit error rate is a few percent.

const (
	golayN = 23 // codeword bits
	golayK = 12 // data bits
	// golayPoly is the generator polynomial
	// g(x) = x¹¹ + x¹⁰ + x⁶ + x⁵ + x⁴ + x² + 1.
	golayPoly   = 0xC75
	golayParity = golayN - golayK // 11
)

// golayRemainder computes v mod g(x) over GF(2), where v is a polynomial of
// degree < 23 packed LSB-first.
func golayRemainder(v uint32) uint32 {
	for i := golayN - 1; i >= golayParity; i-- {
		if v>>uint(i)&1 == 1 {
			v ^= golayPoly << uint(i-golayParity)
		}
	}
	return v & (1<<golayParity - 1)
}

// GolayEncode produces the systematic 23-bit codeword for 12 data bits:
// data in the high positions, parity (remainder) in the low 11.
func GolayEncode(data uint16) uint32 {
	d := uint32(data) & (1<<golayK - 1)
	shifted := d << golayParity
	return shifted | golayRemainder(shifted)
}

// golaySyndromes maps each of the 2^11 syndromes to its unique coset-leader
// error pattern of weight ≤ 3 (perfection of the code guarantees coverage).
var golaySyndromes struct {
	once  sync.Once
	table [1 << golayParity]uint32
}

func golayTable() *[1 << golayParity]uint32 {
	golaySyndromes.once.Do(func() {
		t := &golaySyndromes.table
		// Weight-0 pattern: syndrome 0 → no error (zero value already).
		for a := 0; a < golayN; a++ {
			ea := uint32(1) << uint(a)
			t[golayRemainder(ea)] = ea
			for b := a + 1; b < golayN; b++ {
				eb := ea | 1<<uint(b)
				t[golayRemainder(eb)] = eb
				for c := b + 1; c < golayN; c++ {
					ec := eb | 1<<uint(c)
					t[golayRemainder(ec)] = ec
				}
			}
		}
	})
	return &golaySyndromes.table
}

// GolayDecode corrects up to 3 bit errors in a received 23-bit word and
// returns the corrected data bits along with the number of bits corrected.
// Four or more errors decode silently to a wrong codeword (the code's
// guarantee boundary), exactly as in hardware.
func GolayDecode(received uint32) (data uint16, corrected int) {
	received &= 1<<golayN - 1
	e := golayTable()[golayRemainder(received)]
	fixed := received ^ e
	return uint16(fixed >> golayParity), bits.OnesCount32(e)
}

// GolayGen enrolls response w: per 23-bit block, 12 fresh random key bits
// are encoded and the codeword XOR response becomes public helper data.
func GolayGen(w *bitstream.Stream, rng *rngx.RNG) (key, helper *bitstream.Stream, err error) {
	blocks := w.Len() / golayN
	if blocks == 0 {
		return nil, nil, fmt.Errorf("fuzzy: response of %d bits shorter than one %d-bit Golay block", w.Len(), golayN)
	}
	key = bitstream.New(blocks * golayK)
	helper = bitstream.New(blocks * golayN)
	for b := 0; b < blocks; b++ {
		var data uint16
		for i := 0; i < golayK; i++ {
			if rng.Bool() {
				data |= 1 << uint(i)
			}
		}
		cw := GolayEncode(data)
		for i := 0; i < golayK; i++ {
			key.Append(data>>uint(i)&1 == 1)
		}
		for i := 0; i < golayN; i++ {
			cwBit := cw>>uint(i)&1 == 1
			helper.Append(cwBit != w.Bit(b*golayN+i))
		}
	}
	return key, helper, nil
}

// GolayRep reconstructs the key from a noisy response and the helper data:
// each block tolerates up to 3 flipped response bits.
func GolayRep(wPrime, helper *bitstream.Stream) (*bitstream.Stream, error) {
	if helper.Len()%golayN != 0 {
		return nil, fmt.Errorf("fuzzy: helper length %d is not a multiple of %d", helper.Len(), golayN)
	}
	if wPrime.Len() < helper.Len() {
		return nil, fmt.Errorf("fuzzy: response shorter than helper data")
	}
	blocks := helper.Len() / golayN
	key := bitstream.New(blocks * golayK)
	for b := 0; b < blocks; b++ {
		var word uint32
		for i := 0; i < golayN; i++ {
			if helper.Bit(b*golayN+i) != wPrime.Bit(b*golayN+i) {
				word |= 1 << uint(i)
			}
		}
		data, _ := GolayDecode(word)
		for i := 0; i < golayK; i++ {
			key.Append(data>>uint(i)&1 == 1)
		}
	}
	return key, nil
}
