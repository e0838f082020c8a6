package auth

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	mathbits "math/bits"
	"slices"

	"ropuf/internal/recordio"
	"ropuf/internal/rngx"
)

// Verifier persistence. An authentication server must survive restarts
// without re-enrolling devices (re-enrollment needs physical access), and
// because challenges are single-use, the consumed-pair state must survive
// too. Both live in one record log, framed by package recordio, with two
// mutation records:
//
//	enroll:  type 1 | u16le ID length | ID | binary core.Enrollment (rest)
//	consume: type 2 | u16le ID length | ID | u32le count | count × u32le pair index
//
// A write-ahead log is a bare sequence of them, one per mutation, read
// back by ReplayLog. A snapshot (Save, LoadVerifier) is the same log
// compacted: one header record
//
//	header:  type 3 | u8 version (2) | f64le tolerance | u32le record count
//
// then, per device in sorted-ID order, its enroll record and — if any of
// its pairs are consumed — one consume record with ascending indices. The
// count makes a snapshot cut at a frame boundary fail to load like any
// other truncation. Version 1 was the retired JSON snapshot. The RNG
// state is not persisted; pass a fresh source to LoadVerifier.

const (
	recEnroll  byte = 1
	recConsume byte = 2
	recHeader  byte = 3

	snapshotVersion = 2
	headerLen       = 14
)

// appendRecordHead appends the type byte and length-prefixed device ID
// every mutation record starts with.
func appendRecordHead(dst []byte, typ byte, id string, extra int) ([]byte, error) {
	if len(id) > math.MaxUint16 {
		return nil, fmt.Errorf("auth: device ID %d bytes, record limit %d", len(id), math.MaxUint16)
	}
	dst = slices.Grow(dst, 3+len(id)+extra)
	dst = append(dst, typ)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(id)))
	return append(dst, id...), nil
}

// AppendEnrollRecord appends the record of enrolling device id to dst. Its
// body is the one the device was enrolled or replayed with, verbatim.
func (v *Verifier) AppendEnrollRecord(dst []byte, id string) ([]byte, error) {
	rec, ok := v.devices[id]
	if !ok {
		return nil, fmt.Errorf("auth: %w %q", ErrUnknownDevice, id)
	}
	dst, err := appendRecordHead(dst, recEnroll, id, len(rec.body))
	if err != nil {
		return nil, err
	}
	return append(dst, rec.body...), nil
}

// AppendConsumeRecord appends the record of id's pairs being consumed by
// a challenge to dst.
func AppendConsumeRecord(dst []byte, id string, pairs []int) ([]byte, error) {
	dst, err := appendRecordHead(dst, recConsume, id, 4+4*len(pairs))
	if err != nil {
		return nil, err
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pairs)))
	for _, i := range pairs {
		if i < 0 || uint64(i) > math.MaxUint32 {
			return nil, fmt.Errorf("auth: pair index %d does not fit a record", i)
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(i))
	}
	return dst, nil
}

// apply decodes one mutation record and applies it to v. dupOK skips an
// enroll for a device v already holds, as log replay must; a snapshot
// holds each device once and refuses the duplicate.
func (v *Verifier) apply(p []byte, dupOK bool) error {
	if len(p) < 3 {
		return fmt.Errorf("record %d bytes, need at least 3", len(p))
	}
	idLen := int(binary.LittleEndian.Uint16(p[1:3]))
	if 3+idLen > len(p) {
		return fmt.Errorf("device-ID length %d overruns the record", idLen)
	}
	id, body := string(p[3:3+idLen]), p[3+idLen:]
	switch p[0] {
	case recEnroll:
		err := v.applyEnroll(id, body)
		if dupOK && errors.Is(err, ErrDuplicateDevice) {
			return nil
		}
		return err
	case recConsume:
		if len(body) < 4 {
			return fmt.Errorf("consume %q: missing pair count", id)
		}
		n := binary.LittleEndian.Uint32(body)
		if uint64(len(body)-4) != 4*uint64(n) {
			return fmt.Errorf("consume %q: %d index bytes, count says %d", id, len(body)-4, 4*uint64(n))
		}
		pairs := make([]int, n)
		for i := range pairs {
			pairs[i] = int(binary.LittleEndian.Uint32(body[4+4*i:]))
		}
		return v.MarkUsed(id, pairs)
	default:
		return fmt.Errorf("unknown record type %d", p[0])
	}
}

// ReplayLog applies a write-ahead log's records to v in order. It returns
// how many records it applied and the length of the prefix they span,
// where appends resume. A torn tail (see package recordio) ends the replay
// without error: the crash cut that write short, so it was never
// acknowledged. Replay is idempotent over a snapshot that already holds a
// prefix of the log, which a compaction that crashed between writing its
// snapshot and truncating its log leaves behind: an enroll for a device v
// holds is skipped and a consume re-marks pairs harmlessly. A whole frame
// that does not decode or apply — garbage behind a valid checksum, a
// consume for a device never enrolled, a pair out of range — cannot come
// from any crash and is an error.
func (v *Verifier) ReplayLog(r io.Reader) (records int, valid int64, err error) {
	return v.replay(recordio.NewReader(bufio.NewReader(r)), true)
}

// replay applies rd's records until a clean end. A log (tolerant) ends at
// a tear and skips duplicate enrolls; a snapshot fails on either.
func (v *Verifier) replay(rd *recordio.Reader, tolerant bool) (records int, valid int64, err error) {
	for {
		valid = rd.Offset()
		p, err := rd.Next()
		var torn *recordio.TornError
		if err == io.EOF || (tolerant && errors.As(err, &torn)) {
			return records, valid, nil
		}
		if err != nil {
			return records, valid, fmt.Errorf("auth: record %d: %w", records, err)
		}
		if err := v.apply(p, tolerant); err != nil {
			return records, valid, fmt.Errorf("auth: record %d at offset %d: %w", records, valid, err)
		}
		records++
	}
}

// Save writes the verifier's snapshot — every device and its consumed
// pairs — to w. Enroll records carry the stored bodies verbatim; the
// decoder admits only canonical bodies, so the bytes depend only on the
// verifier's state.
func (v *Verifier) Save(w io.Writer) error {
	ids := v.DeviceIDs()
	count := len(ids)
	for _, id := range ids {
		if slices.ContainsFunc(v.devices[id].used, func(w uint64) bool { return w != 0 }) {
			count++
		}
	}
	bw := bufio.NewWriter(w)
	var frame []byte
	put := func(p []byte) error {
		frame = recordio.Append(frame[:0], p)
		_, err := bw.Write(frame)
		return err
	}
	p := make([]byte, headerLen)
	p[0], p[1] = recHeader, snapshotVersion
	binary.LittleEndian.PutUint64(p[2:], math.Float64bits(v.Tolerance))
	binary.LittleEndian.PutUint32(p[10:], uint32(count))
	if err := put(p); err != nil {
		return err
	}
	var used []int
	for _, id := range ids {
		used = used[:0]
		for w, word := range v.devices[id].used {
			for ; word != 0; word &= word - 1 {
				used = append(used, w<<6+mathbits.TrailingZeros64(word))
			}
		}
		var err error
		if p, err = v.AppendEnrollRecord(p[:0], id); err == nil {
			err = put(p)
		}
		if err == nil && len(used) > 0 {
			if p, err = AppendConsumeRecord(p[:0], id, used); err == nil {
				err = put(p)
			}
		}
		if err != nil {
			return fmt.Errorf("auth: saving device %q: %w", id, err)
		}
	}
	return bw.Flush()
}

// LoadVerifier restores a verifier from a snapshot written by Save. rng
// supplies the challenge randomness for the restored instance. Any tear,
// a missing or surplus record, a duplicate device or an out-of-range pair
// index fails the load: a snapshot is written whole before it is read.
func LoadVerifier(r io.Reader, rng *rngx.RNG) (*Verifier, error) {
	rd := recordio.NewReader(bufio.NewReader(r))
	p, err := rd.Next()
	if err != nil {
		return nil, fmt.Errorf("auth: reading snapshot header: %w", err)
	}
	if len(p) != headerLen || p[0] != recHeader {
		return nil, errors.New("auth: not a verifier snapshot (no header record)")
	}
	if p[1] != snapshotVersion {
		return nil, fmt.Errorf("auth: unsupported snapshot version %d, want %d", p[1], snapshotVersion)
	}
	count := binary.LittleEndian.Uint32(p[10:]) // p is only valid until the next read
	v, err := NewVerifier(math.Float64frombits(binary.LittleEndian.Uint64(p[2:])), rng)
	if err != nil {
		return nil, err
	}
	n, _, err := v.replay(rd, false)
	if err != nil {
		return nil, err
	}
	if uint64(n) != uint64(count) {
		return nil, fmt.Errorf("auth: snapshot holds %d records, its header says %d", n, count)
	}
	return v, nil
}
