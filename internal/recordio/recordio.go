// Package recordio is the one record framing every on-disk log in this
// module shares: the authserve write-ahead log, the verifier snapshot
// (auth.Save) and the binary corpus shards (dataset.FormatBin). A frame is
//
//	u32le payload length, in [1, MaxPayload]
//	u32le payload CRC32-C (Castagnoli)
//	payload
//
// # Torn-frame rule
//
// Reader.Next stops with a *TornError at the first frame that is not
// whole: a short header, a payload cut short by EOF, a zero length (a
// zeroed or preallocated tail), a length over MaxPayload, or a checksum
// mismatch. The length is checked before any allocation, and the payload
// buffer grows only as bytes arrive, so a hostile length costs no more
// memory than the bytes behind it. What a tear means is the caller's
// call: a write-ahead log truncates at Reader.Offset, the end of the last
// good frame, while a snapshot or corpus shard, written whole before anyone
// reads it, treats any tear as corruption.
package recordio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

const (
	// HeaderLen is the frame header size: length plus checksum.
	HeaderLen = 8
	// MaxPayload caps a frame's payload. Real records are at most a few
	// hundred KB; the cap bounds what a corrupt length may ask for.
	MaxPayload = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Append appends payload, framed, to dst and returns the extended slice.
// An empty payload would read back as a torn zero-length frame, and one
// over MaxPayload as a torn over-long one; writers never frame either.
func Append(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// TornError reports a frame that is not whole (see the package comment).
type TornError struct {
	off    int64
	reason string
}

func (e *TornError) Error() string {
	return fmt.Sprintf("recordio: torn frame at offset %d: %s", e.off, e.reason)
}

// Reader reads frames one at a time. It does no buffering of its own, so
// a caller reading from a file should hand it a bufio.Reader, and can
// keep using that reader after the last frame.
type Reader struct {
	r   io.Reader
	off int64
	hdr [HeaderLen]byte
	buf []byte
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Offset is the end of the last frame Next returned.
func (r *Reader) Offset() int64 { return r.off }

// Next returns the next frame's payload, io.EOF when the input ends
// exactly at a frame boundary, a *TornError for a frame that is not
// whole, or the underlying reader's error. The payload is only valid
// until the next call.
func (r *Reader) Next() ([]byte, error) {
	n, err := io.ReadFull(r.r, r.hdr[:])
	switch {
	case err == io.EOF:
		return nil, io.EOF
	case err == io.ErrUnexpectedEOF:
		return nil, r.torn(fmt.Sprintf("%d-byte header", n))
	case err != nil:
		return nil, err
	}
	plen := binary.LittleEndian.Uint32(r.hdr[:4])
	if plen == 0 || plen > MaxPayload {
		return nil, r.torn(fmt.Sprintf("payload length %d outside [1, %d]", plen, MaxPayload))
	}
	payload, err := r.readPayload(int(plen))
	if err != nil {
		return nil, err
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(r.hdr[4:]) {
		return nil, r.torn("checksum mismatch")
	}
	r.off += HeaderLen + int64(plen)
	return payload, nil
}

// readPayload reads n payload bytes into the reusable buffer, growing it
// at most by doubling what has already arrived.
func (r *Reader) readPayload(n int) ([]byte, error) {
	buf := r.buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), max(len(buf), 64<<10))
		buf = slices.Grow(buf, step)[:len(buf)+step]
		if _, err := io.ReadFull(r.r, buf[len(buf)-step:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil, r.torn("payload cut short")
			}
			return nil, err
		}
	}
	r.buf = buf
	return buf, nil
}

func (r *Reader) torn(reason string) *TornError {
	return &TornError{off: r.off, reason: reason}
}
