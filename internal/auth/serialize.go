package auth

import (
	"bufio"
	"bytes"
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
//
// One writer lays a snapshot out. Save hands it the bodies a verifier
// keeps in memory; SaveFrom, for a bodiless verifier, reads them back
// from the snapshot and log its state was recovered from.

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

// splitRecord splits a mutation record into its type, device ID and body,
// which alias p.
func splitRecord(p []byte) (typ byte, id, body []byte, err error) {
	if len(p) < 3 {
		return 0, nil, nil, fmt.Errorf("record %d bytes, need at least 3", len(p))
	}
	idLen := int(binary.LittleEndian.Uint16(p[1:3]))
	if 3+idLen > len(p) {
		return 0, nil, nil, fmt.Errorf("device-ID length %d overruns the record", idLen)
	}
	return p[0], p[3 : 3+idLen], p[3+idLen:], nil
}

// apply decodes one mutation record and applies it to v. dupOK skips an
// enroll for a device v already holds, as log replay must; a snapshot
// holds each device once and refuses the duplicate.
func (v *Verifier) apply(p []byte, dupOK bool) error {
	typ, idBytes, body, err := splitRecord(p)
	if err != nil {
		return err
	}
	id := string(idBytes)
	switch typ {
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
		return fmt.Errorf("unknown record type %d", typ)
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
// verifier's state. A bodiless verifier holds no bodies to write, so Save
// fails on its first device; SaveFrom writes its snapshot.
func (v *Verifier) Save(w io.Writer) error {
	return v.save(w, func(id string) ([]byte, error) {
		if body := v.devices[id].body; body != nil {
			return body, nil
		}
		return nil, errors.New("the verifier keeps no enroll bodies (see SaveFrom)")
	})
}

// SaveFrom writes the bytes Save would write for v's state, taking each
// device's enroll body from the files v's state was recovered from and
// extends: snapshot, the previous snapshot (nil if there is none), and
// log, the write-ahead log's committed records since it. A device's body
// comes from its first enroll record in replay order, snapshot then log,
// which is the record replay applied. The snapshot streams past in its
// sorted-ID order, so SaveFrom holds no body of it beyond the record it
// is copying; it holds the log's enroll bodies, at most the log's size.
// It fails, leaving w partly written, if a device v holds has no enroll
// record in either file, if the snapshot holds a device v does not, or if
// a frame of either file is torn or a record does not decode.
func (v *Verifier) SaveFrom(w io.Writer, snapshot, log io.Reader) error {
	logged, err := loggedBodies(log)
	if err != nil {
		return fmt.Errorf("auth: reading the log: %w", err)
	}
	m := &mergedBodies{logged: logged}
	if snapshot != nil {
		m.snap = recordio.NewReader(bufio.NewReader(snapshot))
		if _, _, err = readHeader(m.snap); err != nil {
			return err
		}
		if m.nextID, m.nextBody, err = nextEnroll(m.snap); err != nil {
			return fmt.Errorf("auth: reading the snapshot: %w", err)
		}
	}
	if err := v.save(w, m.body); err != nil {
		return err
	}
	if m.nextID != nil {
		return fmt.Errorf("auth: the snapshot holds device %q, which the verifier does not", m.nextID)
	}
	return nil
}

// save writes the snapshot of v's state to w, taking each device's enroll
// body from body, which it calls once per device in ascending ID order and
// whose result it copies out before the next call.
func (v *Verifier) save(w io.Writer, body func(id string) ([]byte, error)) error {
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
		b, err := body(id)
		if err == nil {
			p, err = appendRecordHead(p[:0], recEnroll, id, len(b))
		}
		if err == nil {
			p = append(p, b...)
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

// loggedBodies reads a write-ahead log to its end and returns a copy of
// the body of each device's first enroll record.
func loggedBodies(log io.Reader) (map[string][]byte, error) {
	bodies := map[string][]byte{}
	rd := recordio.NewReader(bufio.NewReader(log))
	for {
		id, body, err := nextEnroll(rd)
		if err != nil || id == nil {
			return bodies, err
		}
		if _, ok := bodies[string(id)]; !ok {
			bodies[string(id)] = bytes.Clone(body)
		}
	}
}

// nextEnroll reads rd on to its next enroll record, skipping consume
// records, and returns its device ID and body, which alias rd's buffer;
// both are nil at the end. Any tear is an error: a fold reads a snapshot
// and a log's committed records, both written whole.
func nextEnroll(rd *recordio.Reader) (id, body []byte, err error) {
	for {
		p, err := rd.Next()
		if err == io.EOF {
			return nil, nil, nil
		}
		if err != nil {
			return nil, nil, err
		}
		typ, id, body, err := splitRecord(p)
		if err != nil {
			return nil, nil, err
		}
		switch typ {
		case recEnroll:
			return id, body, nil
		case recConsume:
		default:
			return nil, nil, fmt.Errorf("unknown record type %d", typ)
		}
	}
}

// mergedBodies hands SaveFrom's writer each device's enroll body in
// ascending ID order. A device in the previous snapshot, which is sorted
// by ID too, gets the body of its record there, read in step; any other
// gets its first one in the log.
type mergedBodies struct {
	snap *recordio.Reader // the previous snapshot's records after its header
	// nextID and nextBody are the snapshot's next enroll record, nil at
	// its end or without a snapshot; they alias snap's buffer.
	nextID, nextBody []byte
	copied           []byte // the body handed out last, copied out of snap's buffer
	logged           map[string][]byte
}

// body returns device id's enroll body. Its callers ask in ascending ID
// order, so a snapshot record whose ID sorts first names a device the
// verifier does not hold.
func (m *mergedBodies) body(id string) ([]byte, error) {
	if m.nextID == nil || string(m.nextID) > id {
		if body, ok := m.logged[id]; ok {
			return body, nil
		}
		return nil, errors.New("no enroll record in the snapshot or the log")
	}
	if string(m.nextID) != id {
		return nil, fmt.Errorf("the snapshot holds device %q, which the verifier does not", m.nextID)
	}
	m.copied = append(m.copied[:0], m.nextBody...)
	var err error
	if m.nextID, m.nextBody, err = nextEnroll(m.snap); err != nil {
		return nil, fmt.Errorf("reading the snapshot: %w", err)
	}
	return m.copied, nil
}

// readHeader reads a snapshot's header record and returns the tolerance
// and record count it holds.
func readHeader(rd *recordio.Reader) (tolerance float64, count uint32, err error) {
	p, err := rd.Next()
	if err != nil {
		return 0, 0, fmt.Errorf("auth: reading snapshot header: %w", err)
	}
	if len(p) != headerLen || p[0] != recHeader {
		return 0, 0, errors.New("auth: not a verifier snapshot (no header record)")
	}
	if p[1] != snapshotVersion {
		return 0, 0, fmt.Errorf("auth: unsupported snapshot version %d, want %d", p[1], snapshotVersion)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p[2:])), binary.LittleEndian.Uint32(p[10:]), nil
}

// LoadVerifier restores a verifier from a snapshot written by Save. rng
// supplies the challenge randomness for the restored instance. Any tear,
// a missing or surplus record, a duplicate device or an out-of-range pair
// index fails the load: a snapshot is written whole before it is read.
func LoadVerifier(r io.Reader, rng *rngx.RNG) (*Verifier, error) {
	return load(r, rng, false)
}

// LoadBodilessVerifier restores a bodiless verifier (NewBodilessVerifier)
// from a snapshot as LoadVerifier does, copying no enroll body.
func LoadBodilessVerifier(r io.Reader, rng *rngx.RNG) (*Verifier, error) {
	return load(r, rng, true)
}

func load(r io.Reader, rng *rngx.RNG, bodiless bool) (*Verifier, error) {
	rd := recordio.NewReader(bufio.NewReader(r))
	tolerance, count, err := readHeader(rd)
	if err != nil {
		return nil, err
	}
	v, err := NewVerifier(tolerance, rng)
	if err != nil {
		return nil, err
	}
	v.bodiless = bodiless
	n, _, err := v.replay(rd, false)
	if err != nil {
		return nil, err
	}
	if uint64(n) != uint64(count) {
		return nil, fmt.Errorf("auth: snapshot holds %d records, its header says %d", n, count)
	}
	return v, nil
}
