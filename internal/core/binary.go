package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	mathbits "math/bits"

	"ropuf/internal/bits"
)

// Binary enrollment codec. A deployed verifier stores each device's
// configurations, mask and reference bits (the margins are kept too — they
// are enrollment-time diagnostics, not secrets usable without the
// silicon). The authserve write-ahead log and the verifier snapshot carry
// one encoded enrollment per enroll record, so encoding cost and record
// size are paid once per device enrollment while holding the shard lock.
// The layout is little-endian and bit-packs every boolean vector
// (configurations, mask, response), and encodes without reflection:
//
//	magic(1) version(1) mode(1) threshold(f64)
//	nSelections(u32) stages(u16)
//	mask: ceil(n/8) bytes, LSB-first
//	per selection: flags(1: bit0 hasConfig, bit1 bit) margin(f64)
//	               [x: ceil(stages/8)] [y: ceil(stages/8)]
//	respBits(u32) response: ceil(respBits/8) bytes, LSB-first
//
// One validating walk (walkBinary) reads the format for both decoders,
// LoadEnrollmentBinary and the verifier's ScanEnrollmentBinary. It admits
// only canonical bodies — unused flag bits and the padding bits of every
// packed vector are zero — so an accepted body is exactly what
// AppendBinary writes for its decoded state.

const (
	binaryMagic   = 0xE5 // first byte, so misrouted payloads fail fast
	binaryVersion = 1

	// maxBinaryVectors caps decoded selection/response counts so hostile
	// or corrupt lengths fail with an error instead of a huge allocation.
	maxBinaryVectors = 1 << 24
)

// AppendBinary appends the binary encoding of e to dst and returns the
// extended slice.
func (e *Enrollment) AppendBinary(dst []byte) ([]byte, error) {
	stages := 0
	for i, sel := range e.Selections {
		if sel.X == nil {
			continue
		}
		if len(sel.X) != len(sel.Y) {
			return nil, fmt.Errorf("core: selection %d config lengths differ (%d vs %d)", i, len(sel.X), len(sel.Y))
		}
		if stages == 0 {
			stages = len(sel.X)
		} else if len(sel.X) != stages {
			return nil, fmt.Errorf("core: selection %d has %d stages, earlier selections %d", i, len(sel.X), stages)
		}
	}
	switch {
	case len(e.Selections) != len(e.Mask):
		return nil, fmt.Errorf("core: mask length %d != selections %d", len(e.Mask), len(e.Selections))
	case len(e.Selections) > maxBinaryVectors:
		return nil, fmt.Errorf("core: %d selections exceed the binary format limit", len(e.Selections))
	case stages > math.MaxUint16:
		return nil, fmt.Errorf("core: %d stages exceed the binary format limit", stages)
	case stages == 0 && hasAnyConfig(e.Selections):
		return nil, errors.New("core: zero-length ring configuration")
	}

	var scratch [8]byte
	dst = append(dst, binaryMagic, binaryVersion, byte(e.Mode))
	binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(e.Threshold))
	dst = append(dst, scratch[:8]...)
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(e.Selections)))
	dst = append(dst, scratch[:4]...)
	binary.LittleEndian.PutUint16(scratch[:2], uint16(stages))
	dst = append(dst, scratch[:2]...)
	dst = appendPackedBools(dst, e.Mask)
	for _, sel := range e.Selections {
		flags := byte(0)
		if sel.X != nil {
			flags |= flagConfig
		}
		if sel.Bit {
			flags |= flagBit
		}
		dst = append(dst, flags)
		binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(sel.Margin))
		dst = append(dst, scratch[:8]...)
		if sel.X != nil {
			dst = appendPackedBools(dst, sel.X)
			dst = appendPackedBools(dst, sel.Y)
		}
	}
	respLen := 0
	if e.Response != nil {
		respLen = e.Response.Len()
	}
	if respLen > maxBinaryVectors {
		return nil, fmt.Errorf("core: %d response bits exceed the binary format limit", respLen)
	}
	binary.LittleEndian.PutUint32(scratch[:4], uint32(respLen))
	dst = append(dst, scratch[:4]...)
	var cur byte
	for i := 0; i < respLen; i++ {
		if e.Response.Bit(i) {
			cur |= 1 << (i & 7)
		}
		if i&7 == 7 {
			dst = append(dst, cur)
			cur = 0
		}
	}
	if respLen&7 != 0 {
		dst = append(dst, cur)
	}
	return dst, nil
}

// LoadEnrollmentBinary decodes an enrollment written by AppendBinary. It
// accepts exactly the bodies walkBinary does, so re-encoding what it
// returns gives back data byte for byte.
func LoadEnrollmentBinary(data []byte) (*Enrollment, error) {
	var e *Enrollment
	stages := 0
	err := walkBinary(data, func(h binaryHeader) {
		e = &Enrollment{
			Mode:       h.mode,
			Threshold:  h.threshold,
			Selections: make([]Selection, h.n),
			Mask:       make([]bool, h.n),
			Response:   bits.New(h.kept),
		}
		stages = h.stages
	}, func(i int, s binarySel) {
		e.Mask[i] = s.kept
		sel := &e.Selections[i]
		sel.Margin, sel.Bit = s.margin, s.bit
		if s.x != nil {
			sel.X, sel.Y = unpackBools(s.x, stages), unpackBools(s.y, stages)
		}
		if s.kept {
			e.Response.Append(s.bit)
		}
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// ScanEnrollmentBinary validates a binary enrollment in place, accepting
// exactly the bodies LoadEnrollmentBinary accepts, and returns what a
// verifier keeps of it without decoding a configuration: the pair count
// and two bitsets over pair indices, the mask and every pair's reference
// bit. Pair i is bit i%64 of word i/64; both bitsets share one allocation.
func ScanEnrollmentBinary(data []byte) (n int, mask, ref []uint64, err error) {
	err = walkBinary(data, func(h binaryHeader) {
		n = h.n
		w := (n + 63) / 64
		words := make([]uint64, 2*w)
		mask, ref = words[:w:w], words[w:]
	}, func(i int, s binarySel) {
		if s.kept {
			mask[i>>6] |= 1 << (i & 63)
		}
		if s.bit {
			ref[i>>6] |= 1 << (i & 63)
		}
	})
	if err != nil {
		return 0, nil, nil, err
	}
	return n, mask, ref, nil
}

// Selection flag bits; the other six must be zero.
const (
	flagConfig = 1 << 0 // X and Y follow the margin
	flagBit    = 1 << 1 // the selection's bit
)

// binaryHeader is what walkBinary reads before the selections.
type binaryHeader struct {
	mode      Mode
	threshold float64
	n, stages int
	kept      int // pairs the mask keeps: the response length
}

// binarySel is one selection as walkBinary reads it in place.
type binarySel struct {
	kept, bit bool
	margin    float64
	x, y      []byte // packed configurations; nil when none is stored
}

// walkBinary is the one reader of the binary enrollment grammar. In a
// single pass it checks every rule the format has, structural and
// semantic, and so admits exactly the bodies AppendBinary writes for a
// state Enroll can produce: a kept pair stores a configuration, the
// response holds the kept pairs' bits in order, and every padding bit and
// unused flag bit is zero. The body is therefore canonical: re-encoding
// its decoded state gives it back byte for byte. begin runs once, after
// the mask, and sel once per selection in order; both may run before a
// later byte fails the walk, so a caller keeps nothing from a walk that
// returns an error.
//
// The response sits at a known distance from the end of data (the mask
// fixes its length), so the walk reads it first and checks each kept
// pair's bit against it as the selections go by.
func walkBinary(data []byte, begin func(binaryHeader), sel func(int, binarySel)) error {
	d := binCursor{data: data}
	magic, version, mode := d.byte(), d.byte(), d.byte()
	if d.err == nil && (magic != binaryMagic || version != binaryVersion) {
		return fmt.Errorf("core: not a binary enrollment (magic %#x version %d)", magic, version)
	}
	h := binaryHeader{
		mode:      Mode(mode),
		threshold: math.Float64frombits(d.u64()),
		n:         int(d.u32()),
		stages:    int(d.u16()),
	}
	switch {
	case d.err != nil:
		return d.err
	case h.mode != Case1 && h.mode != Case2:
		return fmt.Errorf("core: invalid mode %d", int(h.mode))
	case !(h.threshold >= 0):
		return fmt.Errorf("core: enrollment threshold %g, want a non-negative number", h.threshold)
	case h.n > maxBinaryVectors:
		return fmt.Errorf("core: selection count %d exceeds the binary format limit", h.n)
	case h.n > (len(data)-d.off)/9:
		// Every selection takes at least 9 bytes (flags and margin): a
		// count the remaining bytes cannot hold is truncation, caught
		// before the count sizes an allocation.
		return errors.New("core: truncated binary enrollment")
	}
	mask := d.bytes((h.n + 7) / 8)
	if d.err != nil {
		return d.err
	}
	if padded(mask, h.n) {
		return errors.New("core: nonzero padding bits after the mask")
	}
	for _, b := range mask {
		h.kept += mathbits.OnesCount8(b)
	}
	if h.kept == 0 {
		return errors.New("core: enrollment has no bits")
	}
	resp := (h.kept + 7) / 8
	tail := len(data) - 4 - resp // where the response length sits
	if tail < d.off {
		return errors.New("core: truncated binary enrollment")
	}
	if got := binary.LittleEndian.Uint32(data[tail:]); uint64(got) != uint64(h.kept) {
		return fmt.Errorf("core: mask keeps %d pairs but response has %d bits", h.kept, got)
	}
	response := data[tail+4:]
	if padded(response, h.kept) {
		return errors.New("core: nonzero padding bits after the response")
	}
	d.data = data[:tail]
	begin(h)

	cfgLen := (h.stages + 7) / 8
	ri := 0 // the next response bit
	for i := 0; i < h.n; i++ {
		flags := d.byte()
		s := binarySel{kept: mask[i>>3]>>(i&7)&1 != 0, bit: flags&flagBit != 0, margin: math.Float64frombits(d.u64())}
		switch {
		case d.err != nil:
			return d.err
		case flags&^(flagConfig|flagBit) != 0:
			return fmt.Errorf("core: selection %d has unknown flag bits %#x", i, flags)
		case flags&flagConfig != 0:
			if h.stages == 0 {
				return errors.New("core: selection with zero-length ring configuration")
			}
			s.x, s.y = d.bytes(cfgLen), d.bytes(cfgLen)
			if d.err != nil {
				return d.err
			}
			if padded(s.x, h.stages) || padded(s.y, h.stages) {
				return fmt.Errorf("core: selection %d has nonzero configuration padding bits", i)
			}
		case s.kept:
			return fmt.Errorf("core: selection %d kept by mask but has no configuration", i)
		}
		if s.kept {
			if response[ri>>3]>>(ri&7)&1 != 0 != s.bit {
				return fmt.Errorf("core: response bit %d inconsistent with selection %d", ri, i)
			}
			ri++
		}
		sel(i, s)
	}
	if rest := len(d.data) - d.off; rest != 0 {
		return fmt.Errorf("core: %d trailing bytes after the selections", rest)
	}
	return nil
}

// padded reports whether the bits after the first n of the packed vector
// p, up to its last byte's end, are not all zero.
func padded(p []byte, n int) bool {
	return n&7 != 0 && p[len(p)-1]>>(n&7) != 0
}

func hasAnyConfig(sels []Selection) bool {
	for _, sel := range sels {
		if sel.X != nil {
			return true
		}
	}
	return false
}

// appendPackedBools appends bs bit-packed LSB-first, ceil(len/8) bytes.
// It packs up to 64 bools into a word with no branch per bit, then
// appends the word's bytes.
func appendPackedBools(dst []byte, bs []bool) []byte {
	for len(bs) > 0 {
		chunk := bs[:min(len(bs), 64)]
		var w uint64
		for i, b := range chunk {
			w |= b2u(b) << i
		}
		for i := 0; i < len(chunk); i += 8 {
			dst = append(dst, byte(w>>i))
		}
		bs = bs[len(chunk):]
	}
	return dst
}

// binCursor is a bounds-checked little-endian reader: the first
// out-of-range read latches err and every later read returns zeros, so
// decode loops stay straight-line and check d.err once.
type binCursor struct {
	data []byte
	off  int
	err  error
}

func (d *binCursor) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.data) {
		d.err = errors.New("core: truncated binary enrollment")
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *binCursor) byte() byte {
	b := d.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *binCursor) u16() uint16 {
	b := d.bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *binCursor) u32() uint32 {
	b := d.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *binCursor) u64() uint64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// unpackBools expands the first n bits of the packed vector p.
func unpackBools(p []byte, n int) []bool {
	bs := make([]bool, n)
	for i := range bs {
		bs[i] = p[i>>3]&(1<<(i&7)) != 0
	}
	return bs
}
