package recordio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// scan reads every frame of data and returns the payloads, the valid
// prefix, and the terminating error (nil for a clean EOF).
func scan(data []byte) (payloads []string, valid int64, err error) {
	rd := NewReader(bytes.NewReader(data))
	for {
		p, err := rd.Next()
		if err == io.EOF {
			return payloads, rd.Offset(), nil
		}
		if err != nil {
			return payloads, rd.Offset(), err
		}
		payloads = append(payloads, string(p))
	}
}

// TestReaderTornTails is the torn-frame table: every way a crash can cut
// a log short ends the scan with a *TornError whose Offset is the end of
// the last whole frame, and the frames before it survive.
func TestReaderTornTails(t *testing.T) {
	r1, r2 := Append(nil, []byte("alpha")), Append(nil, []byte("beta!"))
	both := append(append([]byte(nil), r1...), r2...)

	corruptChecksum := append([]byte(nil), both...)
	corruptChecksum[len(r1)+HeaderLen] ^= 0xFF // flip a byte in r2's payload

	hugeLen := append(append([]byte(nil), r1...), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0)
	overCap := append(append([]byte(nil), r1...), Append(nil, nil)[:HeaderLen]...)
	overCap[len(r1)] = 1 // length MaxPayload+1, little-endian
	overCap[len(r1)+3] = MaxPayload >> 24

	zeroLen := append(append([]byte(nil), r1...), make([]byte, HeaderLen)...)

	cases := []struct {
		name      string
		data      []byte
		wantRecs  int
		wantValid int64
		wantTorn  bool
	}{
		{"empty file", nil, 0, 0, false},
		{"two clean records", both, 2, int64(len(both)), false},
		{"partial header", both[:len(r1)+3], 1, int64(len(r1)), true},
		{"partial payload", both[:len(both)-1], 1, int64(len(r1)), true},
		{"corrupt checksum", corruptChecksum, 1, int64(len(r1)), true},
		{"insane length", hugeLen, 1, int64(len(r1)), true},
		{"length one past the cap", overCap, 1, int64(len(r1)), true},
		{"zeroed tail", zeroLen, 1, int64(len(r1)), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs, valid, err := scan(tc.data)
			var torn *TornError
			if errors.As(err, &torn) != tc.wantTorn || (err != nil && !tc.wantTorn) {
				t.Fatalf("err = %v, want torn %v", err, tc.wantTorn)
			}
			if torn != nil && torn.off != tc.wantValid {
				t.Fatalf("TornError offset = %d, want %d", torn.off, tc.wantValid)
			}
			if len(recs) != tc.wantRecs || valid != tc.wantValid {
				t.Fatalf("got %d records, valid %d; want %d records, valid %d",
					len(recs), valid, tc.wantRecs, tc.wantValid)
			}
			if tc.wantRecs > 0 && recs[0] != "alpha" {
				t.Fatalf("first payload %q, want alpha", recs[0])
			}
		})
	}
}

// TestReaderFrameLayout pins the frame bytes: length, CRC32-C, payload.
func TestReaderFrameLayout(t *testing.T) {
	got := Append([]byte{0xAA}, []byte("123456789"))
	// CRC32-C of "123456789" is the standard check value 0xE3069283.
	want := []byte{0xAA, 9, 0, 0, 0, 0x83, 0x92, 0x06, 0xE3, '1', '2', '3', '4', '5', '6', '7', '8', '9'}
	if !bytes.Equal(got, want) {
		t.Fatalf("Append = % x, want % x", got, want)
	}
}

// TestReaderHostileLengthAllocation pins the allocation bound: a header
// claiming a near-cap payload with nothing behind it must tear without
// allocating anything like the claimed size.
func TestReaderHostileLengthAllocation(t *testing.T) {
	hdr := []byte{0xF0, 0xFF, 0xFF, 0x03, 0, 0, 0, 0} // ~64 MiB claimed
	data := append(hdr, make([]byte, 100)...)
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := scan(data); err == nil {
			t.Fatal("short payload accepted")
		}
	})
	if allocs > 8 {
		t.Fatalf("%v allocs per hostile scan", allocs)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := 0; i < 4; i++ {
		scan(data)
	}
	runtime.ReadMemStats(&ms)
	if grew := ms.TotalAlloc - before; grew > 4<<20 {
		t.Fatalf("4 hostile scans allocated %d bytes; the claimed length was trusted", grew)
	}
}

// TestReaderLargePayloadAndReuse reads a payload past the first growth
// step, then a small one, through a reader that returns short reads.
func TestReaderLargePayloadAndReuse(t *testing.T) {
	big := bytes.Repeat([]byte{7}, 300<<10)
	data := Append(Append(nil, big), []byte("small"))
	rd := NewReader(iotest.HalfReader(bytes.NewReader(data)))
	p, err := rd.Next()
	if err != nil || !bytes.Equal(p, big) {
		t.Fatalf("big payload: %d bytes, %v", len(p), err)
	}
	p, err = rd.Next()
	if err != nil || string(p) != "small" {
		t.Fatalf("small payload: %q, %v", p, err)
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("end: %v, want io.EOF", err)
	}
	if rd.Offset() != int64(len(data)) {
		t.Fatalf("Offset %d, want %d", rd.Offset(), len(data))
	}
}

// TestReaderPassesIOErrors keeps a failing reader's error distinct from a
// tear: a disk error is not a crash-cut frame.
func TestReaderPassesIOErrors(t *testing.T) {
	boom := errors.New("boom")
	rd := NewReader(iotest.ErrReader(boom))
	if _, err := rd.Next(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the reader's error", err)
	}
	frame := Append(nil, []byte("payload"))
	rd = NewReader(io.MultiReader(bytes.NewReader(frame[:HeaderLen+2]), iotest.ErrReader(boom)))
	if _, err := rd.Next(); !errors.Is(err, boom) {
		t.Fatalf("mid-payload err = %v, want the reader's error", err)
	}
}

// TestTornErrorMessage pins what an operator reads in a refused snapshot
// or shard: the offset of the tear and why the frame is not whole.
func TestTornErrorMessage(t *testing.T) {
	r1 := Append(nil, []byte("alpha"))
	cases := []struct {
		name, reason string
		data         []byte
	}{
		{"partial header", "3-byte header", append(append([]byte(nil), r1...), 1, 0, 0)},
		{"partial payload", "payload cut short", Append(append([]byte(nil), r1...), []byte("beta"))[:len(r1)+HeaderLen+2]},
		{"zero length", "payload length 0 outside", append(append([]byte(nil), r1...), make([]byte, HeaderLen)...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := scan(tc.data)
			var torn *TornError
			if !errors.As(err, &torn) {
				t.Fatalf("err = %v, want a *TornError", err)
			}
			want := fmt.Sprintf("recordio: torn frame at offset %d: %s", len(r1), tc.reason)
			if !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("message %q, want prefix %q", err.Error(), want)
			}
		})
	}
}
