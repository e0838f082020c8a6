// Package audit is the security event stream of the serving stack: a
// durable, trace-correlated JSONL log of the moments an operator will be
// asked about later — device enrollments, failed verifications, abuse
// flags raised and cleared. Where metrics aggregate and spans time, audit
// events answer "which device, when, and what was the evidence".
//
// Events flow through a bounded asynchronous Writer so the serving hot
// path never blocks on disk: Emit is a non-blocking channel send, a
// single background goroutine drains to the underlying file, and when the
// buffer is full the event is dropped and counted rather than stalling a
// request. Events lost to a failed write are counted the same way, and
// Close returns the error (the Dropped counter backs the
// ropuf_audit_dropped_total metric). The file is opened in append mode by
// the caller, so restarts extend the stream instead of truncating it — the
// events are observations, never replayed into state, which is what makes
// the stream safe to keep beside the WAL without participating in its
// recovery protocol.
//
// Each event carries the W3C trace ID of the request that caused it (when
// one was in flight), so `ropuf audit` can stitch the stream to the span
// JSONL files written by -trace-out and attribute abuse evidence to the
// exact client requests behind it.
package audit

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one audit record and its JSONL wire format. Detail carries the
// numeric measurements behind the event (pair counts, distances, rates);
// anything non-numeric belongs in Reason or in a new typed field.
type Event struct {
	// TS is the event time, stamped by the emitter.
	TS time.Time `json:"ts"`
	// Event is the record type: "enroll", "challenge", "verify_fail",
	// "flag", "unflag".
	Event string `json:"event"`
	// DeviceID names the device the event concerns.
	DeviceID string `json:"device_id"`
	// TraceID is the W3C trace ID of the request that caused the event,
	// empty for events with no request context (scorer sweeps).
	TraceID string `json:"trace_id,omitempty"`
	// Reason qualifies the event: the flag reason ("harvest",
	// "exhaustion") for flag/unflag, the rejection class for verify_fail
	// ("mismatch", "unknown_challenge", "unknown_device").
	Reason string `json:"reason,omitempty"`
	// Detail holds the numeric evidence (e.g. challenge_rate,
	// fleet_median_rate, distance, limit, fresh_after).
	Detail map[string]float64 `json:"detail,omitempty"`
}

// Well-known event types. The set may grow; consumers must ignore types
// they do not know.
const (
	EventEnroll     = "enroll"
	EventChallenge  = "challenge"
	EventVerifyFail = "verify_fail"
	EventFlag       = "flag"
	EventUnflag     = "unflag"
)

// Writer is the bounded asynchronous audit sink. A nil *Writer is a valid
// disabled writer: Emit and Close no-op, so instrumented code needs no
// guards (the same convention as obs.Tracer).
type Writer struct {
	ch      chan Event
	done    chan struct{}
	flushed chan struct{}

	emitted atomic.Int64
	dropped atomic.Int64

	closeOnce sync.Once

	// The drain goroutine owns the rest; Close reads err once it exits.
	out  io.Writer
	buf  bytes.Buffer  // whole encoded lines not yet written to out
	ends []int         // end offset in buf of each buffered event
	enc  *json.Encoder // encodes into buf
	err  error         // first encode or write error
	// failed is set by the first write error: out may hold a torn line,
	// so every later event is dropped rather than appended to it.
	failed bool
}

// flushBytes is the batch size at which drain writes buffered events out
// before the channel empties.
const flushBytes = 4096

// bufferEvents is the event channel's capacity. Emit never waits on the
// sink, so this buffer is what rides out a slow write: an event that finds
// it full is dropped and counted.
const bufferEvents = 1024

// NewWriter starts the background drain goroutine over w. Callers that
// want the stream to survive restarts should open the file with
// os.O_APPEND (see OpenFile).
func NewWriter(w io.Writer) *Writer {
	aw := &Writer{
		ch:      make(chan Event, bufferEvents),
		done:    make(chan struct{}),
		flushed: make(chan struct{}),
		out:     w,
	}
	aw.enc = json.NewEncoder(&aw.buf)
	go aw.drain()
	return aw
}

// OpenFile opens (creating if absent) an append-mode audit file and wraps
// it in a Writer; the caller closes the file after the Writer. A last line
// without its newline is a write a full disk cut short, whose event the
// writer already counted as dropped: OpenFile cuts it off, so the next
// event starts a line of its own, and returns how many bytes it cut.
func OpenFile(path string) (w *Writer, f *os.File, cut int64, err error) {
	f, err = os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("audit: %w", err)
	}
	if cut, err = cutTornLine(f); err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("audit: %s: %w", path, err)
	}
	return NewWriter(f), f, cut, nil
}

// cutTornLine truncates f to just after its last newline, or to empty if
// it has none, and returns how many bytes that removed.
func cutTornLine(f *os.File) (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	size := st.Size()
	end := size
	buf := make([]byte, 4096)
	for end > 0 {
		n := min(end, int64(len(buf)))
		if _, err := f.ReadAt(buf[:n], end-n); err != nil {
			return 0, err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			end -= n - int64(i) - 1
			break
		}
		end -= n
	}
	if end == size {
		return 0, nil
	}
	return size - end, f.Truncate(end)
}

// drain is the single consumer: it encodes each event as one JSON line and
// writes the batch whenever the channel momentarily empties, so the file
// trails the stream by at most one burst while steady-state writes stay
// batched.
func (w *Writer) drain() {
	defer close(w.flushed)
	for {
		select {
		case ev := <-w.ch:
			w.write(ev)
		case <-w.done:
			// Closed: drain whatever was enqueued before Close, then stop.
			for {
				select {
				case ev := <-w.ch:
					w.write(ev)
				default:
					w.flush()
					return
				}
			}
		default:
			// Channel empty: write the batch, then block for more work.
			w.flush()
			select {
			case ev := <-w.ch:
				w.write(ev)
			case <-w.done:
				continue // let the done branch finish the drain
			}
		}
	}
}

// write adds one event to the batch. An event that fails to encode is
// dropped alone; after a write error every event is dropped.
func (w *Writer) write(ev Event) {
	if w.failed {
		w.dropped.Add(1)
		return
	}
	if err := w.enc.Encode(ev); err != nil {
		w.latch(fmt.Errorf("audit: encoding %s event: %w", ev.Event, err))
		w.dropped.Add(1)
		return
	}
	w.ends = append(w.ends, w.buf.Len())
	if w.buf.Len() >= flushBytes {
		w.flush()
	}
}

// flush writes the batch to out in one call, so an event never straddles
// two writes. On a write error the events whose lines did not reach out
// whole count as dropped.
func (w *Writer) flush() {
	if w.buf.Len() == 0 {
		return
	}
	n, err := w.buf.WriteTo(w.out)
	if err != nil {
		w.latch(fmt.Errorf("audit: writing events: %w", err))
		w.failed = true
		for _, end := range w.ends {
			if int64(end) > n {
				w.dropped.Add(1)
			}
		}
	}
	w.buf.Reset()
	w.ends = w.ends[:0]
}

func (w *Writer) latch(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Emit enqueues one event without blocking. When the buffer is full the
// event is dropped and counted — audit pressure must never stall the
// serving path it observes. An event with a zero TS is stamped now.
func (w *Writer) Emit(ev Event) {
	if w == nil {
		return
	}
	if ev.TS.IsZero() {
		ev.TS = time.Now()
	}
	select {
	case w.ch <- ev:
		w.emitted.Add(1)
	default:
		w.dropped.Add(1)
	}
}

// Emitted counts events accepted into the buffer since construction.
func (w *Writer) Emitted() int64 {
	if w == nil {
		return 0
	}
	return w.emitted.Load()
}

// Dropped counts events that never reached the underlying writer because
// the buffer was full or the write failed — the value behind
// ropuf_audit_dropped_total. A buffer-full drop was never accepted, so
// Emitted does not count it; a failed one was. A non-zero value means the
// stream has holes and per-device counts derived from it are lower bounds.
func (w *Writer) Dropped() int64 {
	if w == nil {
		return 0
	}
	return w.dropped.Load()
}

// Close stops accepting the guarantee of asynchrony: it signals the drain
// goroutine, waits for every already-enqueued event to reach the
// underlying writer, and flushes. It returns the first encode or write
// error the stream met, if any; Dropped counts the events it cost. Emit
// calls racing Close may still be accepted (and are then written) or
// dropped; none block. Safe to call more than once and on a nil Writer.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.closeOnce.Do(func() { close(w.done) })
	<-w.flushed
	return w.err
}

// --- reading ---------------------------------------------------------------

// ReadFile decodes one audit JSONL file, skipping blank lines. A malformed
// line is an error: the writer never produces one, so damage means the
// file is not what the caller thinks it is.
func ReadFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	defer f.Close()
	return Read(f, path)
}

// Read decodes audit JSONL from r; name is used in error messages.
func Read(r io.Reader, name string) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(text), &ev); err != nil {
			return nil, fmt.Errorf("audit: %s:%d: %w", name, line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("audit: %s: %w", name, err)
	}
	return events, nil
}

// ReadFiles concatenates ReadFile over every path.
func ReadFiles(paths []string) ([]Event, error) {
	var all []Event
	for _, p := range paths {
		events, err := ReadFile(p)
		if err != nil {
			return nil, err
		}
		all = append(all, events...)
	}
	return all, nil
}
