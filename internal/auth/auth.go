// Package auth implements challenge–response device authentication on top
// of the configurable RO PUF — the application the paper's introduction
// motivates ("chip authentication").
//
// Enrollment: the verifier measures each device once (trusted environment),
// stores the device's binary enrollment record — whose configurations are
// the prover's helper data — with the mask and reference bits read out of
// it, and never touches the device's silicon again. A bodiless verifier
// keeps only the mask and reference bits, and leaves the record to the
// snapshot and log files its owner keeps. Authentication: the
// verifier sends a challenge naming a random subset of the device's PUF
// pairs; the device re-measures exactly those pairs with its frozen
// configurations and returns the bits; the verifier accepts when the
// Hamming distance to the reference is within a noise tolerance.
//
// Each challenge consumes its pair subset (single-use) so a replayed
// response is rejected, and the tolerance trades false accepts against
// false rejects — both measurable with the silicon simulator (see
// examples/authentication).
//
// # Thread safety
//
// A Verifier is NOT safe for concurrent use: Enroll and NewChallenge
// mutate the device map, the per-device used-pair state, and the shared
// RNG, and even the read paths (NumFresh, Verify) race with those
// mutations. Callers that serve many goroutines must serialize access —
// package authserve does exactly that with a sharded store that holds one
// Verifier per shard behind a per-shard lock.
package auth

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	mathbits "math/bits"
	"sort"

	"ropuf/internal/bits"
	"ropuf/internal/core"
	"ropuf/internal/rngx"
)

// Sentinel errors, matchable with errors.Is; a serving layer maps them to
// protocol-level outcomes (404, 409, ...).
var (
	// ErrUnknownDevice reports an operation on a device ID that was never
	// enrolled.
	ErrUnknownDevice = errors.New("unknown device")
	// ErrDuplicateDevice reports an Enroll for an ID that already exists.
	ErrDuplicateDevice = errors.New("device already enrolled")
	// ErrExhausted reports a challenge request exceeding the device's
	// remaining fresh (unconsumed) pairs.
	ErrExhausted = errors.New("not enough fresh pairs")
)

// DeviceRecord is the verifier's stored state for one enrolled device: its
// enroll record's body, kept verbatim unless the verifier is bodiless, and
// three bitsets over pair indices (pair i is bit i%64 of word i/64).
type DeviceRecord struct {
	ID string
	// body is the device's binary core.Enrollment exactly as its enroll
	// record carries it, in an allocation of its own size; nil in a
	// verifier that keeps no bodies (NewBodilessVerifier).
	body []byte
	n    int // pairs
	// ref holds every pair's reference bit, mask the pairs enrollment
	// kept, and used the pairs consumed by past challenges.
	ref, mask, used []uint64
}

// NumPairs returns how many pairs the device enrolled, masked ones included.
func (r *DeviceRecord) NumPairs() int { return r.n }

// NumBits returns how many pairs enrollment kept: the usable bits.
func (r *DeviceRecord) NumBits() int {
	kept := 0
	for _, w := range r.mask {
		kept += mathbits.OnesCount64(w)
	}
	return kept
}

// Bit returns pair i's reference bit; i must be in [0, NumPairs()).
func (r *DeviceRecord) Bit(i int) bool { return r.ref[i>>6]>>(i&63)&1 != 0 }

// Challenge names the PUF pairs a device must evaluate, in order.
type Challenge struct {
	DeviceID string
	Pairs    []int
}

// Verifier is the authentication server: a database of enrolled devices.
// It is not safe for concurrent use; callers that share one (such as
// authserve's store shards) must serialize access.
type Verifier struct {
	// Tolerance is the maximum acceptable Hamming distance between the
	// response and the stored reference bits, as a fraction of the
	// challenge length (e.g. 0.1 accepts up to 10% noisy bits).
	Tolerance float64

	devices map[string]*DeviceRecord
	rng     *rngx.RNG
	// bodiless marks a verifier whose enroll bodies live only in its
	// owner's snapshot and log files: it keeps none, and SaveFrom reads
	// them back from those files.
	bodiless bool

	// refScratch is reused across Verify calls for the reference bits so
	// the verify hot path does not allocate. Single-threaded use (see
	// type comment) makes one scratch per verifier enough; the stream
	// never escapes a call.
	refScratch bits.Stream
	// freshScratch is the reusable fresh-pair index buffer for
	// NewChallenge; the chosen indices are copied out before returning.
	freshScratch []int
	// bodyScratch is ApplyEnroll's encoding buffer; the record keeps a
	// copy of the right size.
	bodyScratch []byte
}

// NewVerifier creates a verifier with the given noise tolerance fraction.
func NewVerifier(tolerance float64, rng *rngx.RNG) (*Verifier, error) {
	if math.IsNaN(tolerance) || tolerance < 0 || tolerance >= 0.5 {
		return nil, fmt.Errorf("auth: tolerance %g outside [0, 0.5)", tolerance)
	}
	if rng == nil {
		return nil, errors.New("auth: nil RNG")
	}
	return &Verifier{Tolerance: tolerance, devices: map[string]*DeviceRecord{}, rng: rng}, nil
}

// NewBodilessVerifier creates a verifier that keeps no enroll bodies: a
// stored device is its ID, its pair count and its three bitsets. It is
// for a store whose snapshot and write-ahead log hold every body (package
// authserve): Save refuses it, and SaveFrom writes its snapshot with the
// bodies read back from those files.
func NewBodilessVerifier(tolerance float64, rng *rngx.RNG) (*Verifier, error) {
	v, err := NewVerifier(tolerance, rng)
	if err != nil {
		return nil, err
	}
	v.bodiless = true
	return v, nil
}

// Enroll registers a device from its measured pairs and returns the
// enrollment it built, which is the prover's state; the verifier keeps
// only the device's record. The enrollment measurement happens once, in a
// trusted environment.
func (v *Verifier) Enroll(id string, pairs []core.Pair, mode core.Mode) (*core.Enrollment, error) {
	enr, err := v.enrollNew(id, pairs, mode)
	if err != nil {
		return nil, err
	}
	if err := v.ApplyEnroll(id, enr); err != nil {
		return nil, err
	}
	return enr, nil
}

// EnrollRecord enrolls a device as Enroll does and appends to dst the
// enroll record it applied: the mutation record a write-ahead log keeps
// for the enrollment (see serialize.go). The enrollment is encoded once,
// into the record, and the verifier keeps no reference to the record.
func (v *Verifier) EnrollRecord(dst []byte, id string, pairs []core.Pair, mode core.Mode) (*core.Enrollment, []byte, error) {
	enr, err := v.enrollNew(id, pairs, mode)
	if err != nil {
		return nil, nil, err
	}
	rec, err := appendRecordHead(dst, recEnroll, id, 0)
	bodyAt := len(rec)
	if err == nil {
		rec, err = enr.AppendBinary(rec)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("auth: device %q: %w", id, err)
	}
	if err := v.applyEnroll(id, rec[bodyAt:]); err != nil {
		return nil, nil, err
	}
	return enr, rec, nil
}

// enrollNew runs the selection for a device v does not hold yet.
func (v *Verifier) enrollNew(id string, pairs []core.Pair, mode core.Mode) (*core.Enrollment, error) {
	if id == "" {
		return nil, errors.New("auth: empty device ID")
	}
	if _, ok := v.devices[id]; ok {
		return nil, fmt.Errorf("auth: device %q: %w", id, ErrDuplicateDevice)
	}
	enr, err := core.Enroll(pairs, mode, 0, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("auth: enrolling %q: %w", id, err)
	}
	return enr, nil
}

// Record-level apply/rollback API. A durability layer (package authserve's
// write-ahead log) needs two things the high-level calls don't give it:
// installing state without re-running the selection algorithm (ReplayLog
// applies logged records this way), and undoing an in-memory mutation
// whose durability write failed before anything escaped to the network.

// ApplyEnroll installs a pre-built enrollment with no consumed pairs.
// Unlike Enroll it never runs the selection algorithm. It encodes the
// enrollment once and stores it as log replay stores a logged one, so an
// enrollment the binary decoder would refuse is refused here too. Applying
// an ID the verifier already holds fails with ErrDuplicateDevice.
func (v *Verifier) ApplyEnroll(id string, enr *core.Enrollment) error {
	if enr == nil {
		return fmt.Errorf("auth: device %q: nil enrollment", id)
	}
	body, err := enr.AppendBinary(v.bodyScratch[:0])
	if err != nil {
		return fmt.Errorf("auth: device %q: %w", id, err)
	}
	v.bodyScratch = body
	return v.applyEnroll(id, body)
}

// applyEnroll installs the device whose enroll record body is body,
// keeping the bitsets one validating walk reads out of it
// (core.ScanEnrollmentBinary) and, unless v is bodiless, a copy of it. A
// body that does not validate fails before the ID is checked, so a log
// replay that skips duplicate IDs still validates every record.
func (v *Verifier) applyEnroll(id string, body []byte) error {
	n, mask, ref, err := core.ScanEnrollmentBinary(body)
	if err != nil {
		return fmt.Errorf("auth: device %q: %w", id, err)
	}
	if id == "" {
		return errors.New("auth: empty device ID")
	}
	if _, ok := v.devices[id]; ok {
		return fmt.Errorf("auth: device %q: %w", id, ErrDuplicateDevice)
	}
	rec := &DeviceRecord{ID: id, n: n, ref: ref, mask: mask, used: make([]uint64, len(mask))}
	if !v.bodiless {
		rec.body = bytes.Clone(body)
	}
	v.devices[id] = rec
	return nil
}

// Unenroll removes a device, reporting whether it existed — the rollback
// for an Enroll whose durability write failed: the client is told to
// retry, so the in-memory record must not survive to 409 that retry.
func (v *Verifier) Unenroll(id string) bool {
	_, ok := v.devices[id]
	delete(v.devices, id)
	return ok
}

// MarkUsed consumes the given pair indices — the replay path for a logged
// challenge issuance. Marking an already-consumed pair is a no-op, so
// replaying a log over a snapshot that already contains its effects
// converges instead of double-counting.
func (v *Verifier) MarkUsed(id string, pairs []int) error {
	return v.setUsed(id, pairs, true)
}

// UnmarkUsed returns pair indices to the fresh pool — the rollback for a
// NewChallenge whose durability write failed. It is only sound when the
// challenge never left the process: the pairs were consumed in memory but
// no bits were exposed, so re-issuing them later leaks nothing.
func (v *Verifier) UnmarkUsed(id string, pairs []int) error {
	return v.setUsed(id, pairs, false)
}

// setUsed sets or clears the used bits of pairs, all or none.
func (v *Verifier) setUsed(id string, pairs []int, used bool) error {
	rec, ok := v.devices[id]
	if !ok {
		return fmt.Errorf("auth: %w %q", ErrUnknownDevice, id)
	}
	for _, i := range pairs {
		if i < 0 || i >= rec.n {
			return fmt.Errorf("auth: device %q: pair index %d outside [0, %d)", id, i, rec.n)
		}
	}
	for _, i := range pairs {
		if used {
			rec.used[i>>6] |= 1 << (i & 63)
		} else {
			rec.used[i>>6] &^= 1 << (i & 63)
		}
	}
	return nil
}

// NumFresh returns how many unconsumed pairs a device still has.
func (v *Verifier) NumFresh(id string) (int, error) {
	rec, ok := v.devices[id]
	if !ok {
		return 0, fmt.Errorf("auth: %w %q", ErrUnknownDevice, id)
	}
	n := 0
	for w, kept := range rec.mask {
		n += mathbits.OnesCount64(kept &^ rec.used[w])
	}
	return n, nil
}

// NumDevices returns the number of enrolled devices.
func (v *Verifier) NumDevices() int { return len(v.devices) }

// DeviceIDs lists the enrolled device IDs in sorted order.
func (v *Verifier) DeviceIDs() []string {
	ids := make([]string, 0, len(v.devices))
	for id := range v.devices {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Device returns the stored record for an enrolled device, or
// ErrUnknownDevice. The record is the verifier's live state, not a copy;
// the thread-safety contract of the Verifier covers it.
func (v *Verifier) Device(id string) (*DeviceRecord, error) {
	rec, ok := v.devices[id]
	if !ok {
		return nil, fmt.Errorf("auth: %w %q", ErrUnknownDevice, id)
	}
	return rec, nil
}

// NewChallenge draws a single-use challenge of length k for the device.
// The selected pairs are consumed immediately (even if the authentication
// later fails), so an eavesdropped response cannot be replayed.
func (v *Verifier) NewChallenge(id string, k int) (*Challenge, error) {
	rec, ok := v.devices[id]
	if !ok {
		return nil, fmt.Errorf("auth: %w %q", ErrUnknownDevice, id)
	}
	if k <= 0 {
		return nil, fmt.Errorf("auth: challenge length %d must be positive", k)
	}
	fresh := v.freshScratch[:0]
	for w, kept := range rec.mask {
		for free := kept &^ rec.used[w]; free != 0; free &= free - 1 {
			fresh = append(fresh, w<<6+mathbits.TrailingZeros64(free))
		}
	}
	v.freshScratch = fresh
	if len(fresh) < k {
		return nil, fmt.Errorf("auth: device %q has only %d fresh pairs, need %d: %w", id, len(fresh), k, ErrExhausted)
	}
	v.rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	chosen := append([]int(nil), fresh[:k]...)
	for _, i := range chosen {
		rec.used[i>>6] |= 1 << (i & 63)
	}
	return &Challenge{DeviceID: id, Pairs: chosen}, nil
}

// referenceBits extracts the stored bits for the challenge's pairs into
// ref, which is reset first. Filling a caller-owned stream keeps Verify
// allocation-free: the reference lives only for one distance computation.
func (v *Verifier) referenceBits(ch *Challenge, ref *bits.Stream) error {
	rec, ok := v.devices[ch.DeviceID]
	if !ok {
		return fmt.Errorf("auth: %w %q", ErrUnknownDevice, ch.DeviceID)
	}
	ref.Reset()
	for _, i := range ch.Pairs {
		if i < 0 || i >= rec.n {
			return fmt.Errorf("auth: challenge pair index %d out of range", i)
		}
		ref.Append(rec.Bit(i))
	}
	return nil
}

// Verify checks a device's response against the stored reference.
// It returns the measured Hamming distance alongside the verdict.
func (v *Verifier) Verify(ch *Challenge, response *bits.Stream) (ok bool, distance int, err error) {
	ref := &v.refScratch
	if err := v.referenceBits(ch, ref); err != nil {
		return false, 0, err
	}
	if response.Len() != ref.Len() {
		return false, 0, fmt.Errorf("auth: response has %d bits, challenge expects %d", response.Len(), ref.Len())
	}
	d, err := bits.HammingDistance(ref, response)
	if err != nil {
		return false, 0, err
	}
	limit := int(v.Tolerance * float64(ref.Len()))
	return d <= limit, d, nil
}

// Prover is the device side: it holds the frozen enrollment configurations
// and answers challenges from fresh measurements.
type Prover struct {
	Enrollment *core.Enrollment
}

// Respond evaluates the challenged pairs against fresh measurements of
// *all* the device's pairs (the measurement interface re-measures the whole
// array; the challenge picks which bits leave the device).
func (p *Prover) Respond(ch *Challenge, fresh []core.Pair) (*bits.Stream, error) {
	if len(fresh) != len(p.Enrollment.Selections) {
		return nil, fmt.Errorf("auth: device measured %d pairs, enrollment has %d", len(fresh), len(p.Enrollment.Selections))
	}
	out := bits.New(len(ch.Pairs))
	for _, i := range ch.Pairs {
		if i < 0 || i >= len(fresh) {
			return nil, fmt.Errorf("auth: challenge pair index %d out of range", i)
		}
		bit, _, err := p.Enrollment.Selections[i].Evaluate(fresh[i].Alpha, fresh[i].Beta)
		if err != nil {
			return nil, err
		}
		out.Append(bit)
	}
	return out, nil
}
