package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"ropuf/internal/bits"
	"ropuf/internal/circuit"
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
// The decoder funnels through validateEnrollment, so it admits exactly
// the states Enroll can produce.

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
			flags |= 1
		}
		if sel.Bit {
			flags |= 2
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

// LoadEnrollmentBinary decodes an enrollment written by AppendBinary and
// validates it.
func LoadEnrollmentBinary(data []byte) (*Enrollment, error) {
	d := binCursor{data: data}
	magic, version, mode := d.byte(), d.byte(), d.byte()
	if d.err == nil && (magic != binaryMagic || version != binaryVersion) {
		return nil, fmt.Errorf("core: not a binary enrollment (magic %#x version %d)", magic, version)
	}
	threshold := math.Float64frombits(d.u64())
	n := int(d.u32())
	stages := int(d.u16())
	if d.err == nil && n > maxBinaryVectors {
		return nil, fmt.Errorf("core: selection count %d exceeds the binary format limit", n)
	}
	if d.err != nil {
		return nil, d.err
	}
	// Every selection takes at least 9 bytes (flags and margin): a count
	// the remaining bytes cannot hold is truncation, caught before the
	// count sizes an allocation.
	if n > (len(d.data)-d.off)/9 {
		return nil, errors.New("core: truncated binary enrollment")
	}
	e := &Enrollment{
		Mode:       Mode(mode),
		Threshold:  threshold,
		Selections: make([]Selection, 0, n),
		Mask:       d.packedBools(n),
	}
	for i := 0; i < n && d.err == nil; i++ {
		flags := d.byte()
		sel := Selection{
			Margin: math.Float64frombits(d.u64()),
			Bit:    flags&2 != 0,
		}
		if flags&1 != 0 {
			if stages == 0 {
				return nil, errors.New("core: selection with zero-length ring configuration")
			}
			sel.X = circuit.Config(d.packedBools(stages))
			sel.Y = circuit.Config(d.packedBools(stages))
		}
		e.Selections = append(e.Selections, sel)
	}
	respLen := int(d.u32())
	if d.err == nil && respLen > maxBinaryVectors {
		return nil, fmt.Errorf("core: response length %d exceeds the binary format limit", respLen)
	}
	if d.err != nil {
		return nil, d.err
	}
	packed := d.bytes((respLen + 7) / 8)
	if d.err != nil {
		return nil, d.err
	}
	if len(d.data[d.off:]) != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after binary enrollment", len(d.data[d.off:]))
	}
	resp := bits.New(respLen)
	for i := 0; i < respLen; i++ {
		resp.Append(packed[i>>3]&(1<<(i&7)) != 0)
	}
	e.Response = resp
	if err := validateEnrollment(e); err != nil {
		return nil, err
	}
	return e, nil
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
func appendPackedBools(dst []byte, bs []bool) []byte {
	var cur byte
	for i, b := range bs {
		if b {
			cur |= 1 << (i & 7)
		}
		if i&7 == 7 {
			dst = append(dst, cur)
			cur = 0
		}
	}
	if len(bs)&7 != 0 {
		dst = append(dst, cur)
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

func (d *binCursor) packedBools(n int) []bool {
	packed := d.bytes((n + 7) / 8)
	if d.err != nil {
		return nil
	}
	bs := make([]bool, n)
	for i := range bs {
		bs[i] = packed[i>>3]&(1<<(i&7)) != 0
	}
	return bs
}

// validateEnrollment is the semantic gate the decoder funnels through: a
// decoded enrollment is admitted only if Enroll could have produced it.
func validateEnrollment(e *Enrollment) error {
	if e.Mode != Case1 && e.Mode != Case2 {
		return fmt.Errorf("core: invalid mode %d", int(e.Mode))
	}
	if e.Threshold < 0 {
		return fmt.Errorf("core: negative threshold %g", e.Threshold)
	}
	if len(e.Mask) != len(e.Selections) {
		return fmt.Errorf("core: mask length %d != selections %d", len(e.Mask), len(e.Selections))
	}
	// A device has one physical ring length, so every stored configuration
	// must share one stage count n (masked pairs store no configuration and
	// are exempt). Mixed lengths mean the file was corrupted or hand-edited
	// and would otherwise surface later as confusing per-pair Evaluate
	// length errors — or silently mix ring sizes.
	stageCount := -1
	kept := 0
	for i, sel := range e.Selections {
		if sel.X != nil {
			if len(sel.X) != len(sel.Y) {
				return fmt.Errorf("core: selection %d config lengths differ (%d vs %d)", i, len(sel.X), len(sel.Y))
			}
			if stageCount == -1 {
				stageCount = len(sel.X)
			} else if len(sel.X) != stageCount {
				return fmt.Errorf("core: selection %d has %d stages but earlier selections have %d (mixed ring sizes)",
					i, len(sel.X), stageCount)
			}
		} else if e.Mask[i] {
			return fmt.Errorf("core: selection %d kept by mask but has no configuration", i)
		}
		if e.Mask[i] {
			kept++
		}
	}
	if kept != e.Response.Len() {
		return fmt.Errorf("core: mask keeps %d pairs but response has %d bits", kept, e.Response.Len())
	}
	if e.Response.Len() == 0 {
		return errors.New("core: enrollment has no bits")
	}
	// Reference bits must match the stored selections' bits.
	bi := 0
	for i, sel := range e.Selections {
		if !e.Mask[i] {
			continue
		}
		if e.Response.Bit(bi) != sel.Bit {
			return fmt.Errorf("core: response bit %d inconsistent with selection %d", bi, i)
		}
		bi++
	}
	return nil
}
