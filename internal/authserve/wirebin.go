package authserve

import (
	"encoding/binary"
	"fmt"
	"math"
	"unicode/utf8"
)

// Binary enroll wire format. An enrollment body carries every pair's
// per-stage delay vectors — thousands of float64s — and parsing that as
// JSON costs more CPU than the enrollment math itself, so bulk enrollers
// (the loadgen, future fleet importers) may POST /v1/enroll with
// Content-Type application/x-ropuf-enroll instead. The JSON body remains
// the v1 contract and the default; the binary form is an additive,
// semantically identical encoding of EnrollRequest:
//
//	magic 'R' 'E'   version(1)   mode(1: 0=default, 1=case1, 2=case2)
//	idLen(u16) id   nPairs(u32)
//	per pair: nAlpha(u16) alpha f64s...  nBeta(u16) beta f64s...
//
// All integers and floats are little-endian. The id must be valid UTF-8,
// the IDs a JSON body can carry.

// EnrollContentTypeBinary selects the binary enroll encoding on POST
// /v1/enroll.
const EnrollContentTypeBinary = "application/x-ropuf-enroll"

const (
	enrollWireVersion  = 1
	enrollWireMaxID    = math.MaxUint16
	enrollWireMaxPairs = 1 << 20
	enrollWireMaxStage = math.MaxUint16
)

// enrollWireMode maps the wire's mode byte to EnrollRequest.Mode strings
// and back. Index 0 is the empty default (server picks case2).
var enrollWireModes = []string{"", "case1", "case2"}

// AppendEnrollBinary appends the binary encoding of req to dst. It is the
// client-side encoder; the server accepts the result under
// EnrollContentTypeBinary.
func AppendEnrollBinary(dst []byte, req *EnrollRequest) ([]byte, error) {
	modeByte := -1
	for i, m := range enrollWireModes {
		if req.Mode == m {
			modeByte = i
		}
	}
	switch {
	case modeByte < 0:
		return nil, fmt.Errorf("authserve: mode %q has no binary encoding", req.Mode)
	case len(req.ID) > enrollWireMaxID:
		return nil, fmt.Errorf("authserve: device ID of %d bytes exceeds the wire limit", len(req.ID))
	case !utf8.ValidString(req.ID):
		return nil, fmt.Errorf("authserve: device ID is not valid UTF-8")
	case len(req.Pairs) > enrollWireMaxPairs:
		return nil, fmt.Errorf("authserve: %d pairs exceed the wire limit", len(req.Pairs))
	}
	var scratch [8]byte
	dst = append(dst, 'R', 'E', enrollWireVersion, byte(modeByte))
	binary.LittleEndian.PutUint16(scratch[:2], uint16(len(req.ID)))
	dst = append(dst, scratch[:2]...)
	dst = append(dst, req.ID...)
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(req.Pairs)))
	dst = append(dst, scratch[:4]...)
	appendF64s := func(dst []byte, vs []float64) ([]byte, error) {
		if len(vs) > enrollWireMaxStage {
			return nil, fmt.Errorf("authserve: %d stages exceed the wire limit", len(vs))
		}
		binary.LittleEndian.PutUint16(scratch[:2], uint16(len(vs)))
		dst = append(dst, scratch[:2]...)
		for _, v := range vs {
			binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
			dst = append(dst, scratch[:8]...)
		}
		return dst, nil
	}
	var err error
	for _, p := range req.Pairs {
		if dst, err = appendF64s(dst, p.Alpha); err != nil {
			return nil, err
		}
		if dst, err = appendF64s(dst, p.Beta); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// decodeEnrollBinary parses a binary enroll body into req. Every α and β
// vector is carved out of one backing array: floats when its capacity
// suffices, else a fresh one, and the array used is returned for reuse
// (the vectors alias it until then). Errors are client errors (400): the
// framing is length-prefixed throughout, so any truncation or oversized
// count is detected before large allocations. A pair takes at least its
// two u16 stage counts, so a pair count beyond a quarter of the bytes
// left is a truncation.
func decodeEnrollBinary(data []byte, req *EnrollRequest, floats []float64) ([]float64, error) {
	if len(data) < 10 || data[0] != 'R' || data[1] != 'E' {
		return floats, fmt.Errorf("authserve: not a binary enroll body")
	}
	if data[2] != enrollWireVersion {
		return floats, fmt.Errorf("authserve: unsupported binary enroll version %d", data[2])
	}
	if int(data[3]) >= len(enrollWireModes) {
		return floats, fmt.Errorf("authserve: unknown binary enroll mode %d", data[3])
	}
	req.Mode = enrollWireModes[data[3]]
	off := 4
	need := func(n int) bool { return len(data)-off >= n }
	if !need(2) {
		return floats, fmt.Errorf("authserve: truncated binary enroll body")
	}
	idLen := int(binary.LittleEndian.Uint16(data[off:]))
	off += 2
	if !need(idLen) {
		return floats, fmt.Errorf("authserve: truncated binary enroll body")
	}
	if !utf8.Valid(data[off : off+idLen]) {
		return floats, fmt.Errorf("authserve: device ID is not valid UTF-8")
	}
	req.ID = string(data[off : off+idLen])
	off += idLen
	if !need(4) {
		return floats, fmt.Errorf("authserve: truncated binary enroll body")
	}
	nPairs := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	if nPairs > enrollWireMaxPairs {
		return floats, fmt.Errorf("authserve: %d pairs exceed the wire limit", nPairs)
	}
	if nPairs > (len(data)-off)/4 {
		return floats, fmt.Errorf("authserve: truncated binary enroll body")
	}
	// Each delay takes 8 of the bytes left, so they bound the delays the
	// pairs carry and the appends below never grow the backing array.
	if n := (len(data) - off) / 8; cap(floats) < n {
		floats = make([]float64, 0, n)
	}
	floats = floats[:0]
	readF64s := func() ([]float64, error) {
		if !need(2) {
			return nil, fmt.Errorf("authserve: truncated binary enroll body")
		}
		n := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if !need(n * 8) {
			return nil, fmt.Errorf("authserve: truncated binary enroll body")
		}
		start := len(floats)
		for range n {
			floats = append(floats, math.Float64frombits(binary.LittleEndian.Uint64(data[off:])))
			off += 8
		}
		return floats[start:len(floats):len(floats)], nil
	}
	req.Pairs = make([]PairWire, nPairs)
	var err error
	for i := range req.Pairs {
		if req.Pairs[i].Alpha, err = readF64s(); err != nil {
			return floats, err
		}
		if req.Pairs[i].Beta, err = readF64s(); err != nil {
			return floats, err
		}
	}
	if off != len(data) {
		return floats, fmt.Errorf("authserve: %d trailing bytes after binary enroll body", len(data)-off)
	}
	return floats, nil
}
