// Package bits implements the bitstream type shared by the PUF bit
// generators, the NIST statistical test suite and the quality metrics.
//
// A Stream stores bits packed into uint64 words (LSB-first within a word)
// so that Hamming-distance computations — the inner loop of the uniqueness
// and configuration-distance experiments, which compare millions of pairs —
// reduce to XOR + popcount.
package bits

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
)

// Stream is an append-only sequence of bits.
type Stream struct {
	words []uint64
	n     int
}

// New returns an empty stream with capacity reserved for n bits.
func New(n int) *Stream {
	if n < 0 {
		n = 0
	}
	return &Stream{words: make([]uint64, 0, (n+63)/64)}
}

// FromString parses a string of '0'/'1' characters. Any other character is
// an error.
func FromString(str string) (*Stream, error) {
	s := New(len(str))
	for i := 0; i < len(str); i++ {
		switch str[i] {
		case '0':
			s.Append(false)
		case '1':
			s.Append(true)
		default:
			return nil, fmt.Errorf("bits: invalid character %q at position %d", str[i], i)
		}
	}
	return s, nil
}

// MustFromString is FromString that panics on error; for tests and
// compile-time-constant patterns.
func MustFromString(str string) *Stream {
	s, err := FromString(str)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of bits in the stream.
func (s *Stream) Len() int { return s.n }

// Append adds one bit to the end of the stream.
func (s *Stream) Append(b bool) {
	word, off := s.n/64, uint(s.n%64)
	if word == len(s.words) {
		s.words = append(s.words, 0)
	}
	if b {
		s.words[word] |= 1 << off
	}
	s.n++
}

// Reset truncates the stream to zero bits, keeping its capacity. Append
// writes an explicit zero word at each word boundary, so stale contents
// are never observable after a Reset.
func (s *Stream) Reset() {
	s.words = s.words[:0]
	s.n = 0
}

// AppendChars appends one bit per '0'/'1' byte of str. It is FromString
// for a reusable stream: same parse, same error, no allocation when the
// stream's capacity suffices. On error the stream holds the bits parsed
// before the offending character.
func (s *Stream) AppendChars(str []byte) error {
	for i := 0; i < len(str); i++ {
		switch str[i] {
		case '0':
			s.Append(false)
		case '1':
			s.Append(true)
		default:
			return fmt.Errorf("bits: invalid character %q at position %d", str[i], i)
		}
	}
	return nil
}

// AppendStream appends all bits of t to s.
func (s *Stream) AppendStream(t *Stream) {
	for i := 0; i < t.n; i++ {
		s.Append(t.Bit(i))
	}
}

// Bit returns bit i. It panics if i is out of range.
func (s *Stream) Bit(i int) bool {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bits: index %d out of range [0,%d)", i, s.n))
	}
	return s.words[i/64]>>(uint(i%64))&1 == 1
}

// SetBit sets bit i to b. It panics if i is out of range.
func (s *Stream) SetBit(i int, b bool) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bits: index %d out of range [0,%d)", i, s.n))
	}
	mask := uint64(1) << uint(i%64)
	if b {
		s.words[i/64] |= mask
	} else {
		s.words[i/64] &^= mask
	}
}

// Int returns bit i as 0 or 1.
func (s *Stream) Int(i int) int {
	if s.Bit(i) {
		return 1
	}
	return 0
}

// OnesCount returns the Hamming weight of the stream.
func (s *Stream) OnesCount() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy of the stream.
func (s *Stream) Clone() *Stream {
	cp := &Stream{words: append([]uint64(nil), s.words...), n: s.n}
	return cp
}

// Slice returns a new stream holding bits [lo, hi).
func (s *Stream) Slice(lo, hi int) *Stream {
	if lo < 0 || hi > s.n || lo > hi {
		panic(fmt.Sprintf("bits: slice [%d,%d) out of range [0,%d)", lo, hi, s.n))
	}
	out := New(hi - lo)
	for i := lo; i < hi; i++ {
		out.Append(s.Bit(i))
	}
	return out
}

// String renders the stream as a '0'/'1' string.
func (s *Stream) String() string {
	var b strings.Builder
	b.Grow(s.n)
	for i := 0; i < s.n; i++ {
		if s.Bit(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Equal reports whether two streams have identical length and contents.
func (s *Stream) Equal(t *Stream) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		// The last word may contain stale bits above n in either stream if
		// bits were cleared; mask to the valid region.
		mask := ^uint64(0)
		if (i+1)*64 > s.n {
			rem := uint(s.n - i*64)
			if rem == 0 {
				mask = 0
			} else {
				mask = (^uint64(0)) >> (64 - rem)
			}
		}
		if w&mask != t.words[i]&mask {
			return false
		}
	}
	return true
}

// HammingDistance returns the number of positions at which s and t differ.
// It returns an error if the lengths differ.
func HammingDistance(s, t *Stream) (int, error) {
	if s.n != t.n {
		return 0, errors.New("bits: HammingDistance length mismatch")
	}
	d := 0
	for i := range s.words {
		w := s.words[i] ^ t.words[i]
		if (i+1)*64 > s.n {
			rem := uint(s.n - i*64)
			if rem > 0 {
				w &= (^uint64(0)) >> (64 - rem)
			} else {
				w = 0
			}
		}
		d += bits.OnesCount64(w)
	}
	return d, nil
}

// MustHammingDistance is HammingDistance that panics on length mismatch.
func MustHammingDistance(s, t *Stream) int {
	d, err := HammingDistance(s, t)
	if err != nil {
		panic(err)
	}
	return d
}

// Concat returns the concatenation of the given streams.
func Concat(streams ...*Stream) *Stream {
	total := 0
	for _, s := range streams {
		total += s.Len()
	}
	out := New(total)
	for _, s := range streams {
		out.AppendStream(s)
	}
	return out
}
