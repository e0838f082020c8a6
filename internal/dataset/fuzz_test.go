package dataset

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"runtime"
	"testing"

	"ropuf/internal/recordio"
)

// fuzzSeedBody encodes one valid tiny board record body: two ROs under two
// conditions.
func fuzzSeedBody(t testing.TB) []byte {
	b := &Board{
		ID:    7,
		GridW: 2,
		GridH: 1,
		X:     []int{0, 1},
		Y:     []int{0, 0},
		Freq: map[Condition][]float64{
			NominalCondition: {95.5, 96.25},
			{980, 250}:       {94.0, 95.125},
		},
	}
	body, err := appendBinBoard(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// fuzzSeedRecord frames fuzzSeedBody — the known-good shape the fuzzer
// mutates.
func fuzzSeedRecord(t testing.TB) []byte {
	return recordio.Append(nil, fuzzSeedBody(t))
}

// FuzzShardBin feeds arbitrary bytes to the framed-record decoder the way
// binCursor does: records are read back to back until one fails. Corrupt
// input must produce an error, never a panic or an allocation out of
// proportion to the input, and every decoded board must be internally
// consistent.
func FuzzShardBin(f *testing.F) {
	seed := fuzzSeedRecord(f)
	f.Add(seed)
	f.Add(append(append([]byte{}, seed...), seed...)) // two records back to back
	f.Add(seed[:len(seed)/2])                         // truncated mid-body
	f.Add(seed[:6])                                   // truncated mid-header
	// Frame that claims a giant body.
	huge := append([]byte{}, seed...)
	binary.LittleEndian.PutUint32(huge[0:4], 1<<31)
	f.Add(huge)
	// Body bytes damaged under an intact CRC field.
	bad := append([]byte{}, seed...)
	bad[len(bad)-1] ^= 0xFF
	f.Add(bad)
	// A 14-byte body that claims 2^20 ROs under 4,096 conditions.
	f.Add(recordio.Append(nil, []byte{7, 0, 0, 0, 2, 0, 1, 0, 0, 0, 0x10, 0, 0, 0x10}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		defer func() {
			runtime.ReadMemStats(&ms)
			if grew := ms.TotalAlloc - before; grew > 1<<20+64*uint64(len(data)) {
				t.Fatalf("decoding %d bytes allocated %d bytes", len(data), grew)
			}
		}()
		rd := recordio.NewReader(bytes.NewReader(data))
		for {
			body, err := rd.Next()
			if err != nil {
				return // rejection is the expected outcome for garbage
			}
			b, rows, err := decodeBinBoard(body)
			if err != nil {
				return
			}
			n := len(b.X)
			if len(b.Y) != n {
				t.Fatalf("decoded board has %d X but %d Y", n, len(b.Y))
			}
			var want int64
			for _, fr := range b.Freq {
				if len(fr) != n {
					t.Fatalf("decoded condition has %d ROs, board has %d", len(fr), n)
				}
				want += int64(n)
			}
			if rows != want {
				t.Fatalf("row count %d, board holds %d", rows, want)
			}
		}
	})
}

// FuzzManifest asserts hostile manifest bytes either parse into a manifest
// that satisfies every invariant OpenShards relies on, or error — never
// panic.
func FuzzManifest(f *testing.F) {
	good := &Manifest{
		Version: 1,
		Format:  FormatBin,
		Shards:  1,
		Boards:  2,
		Rows:    4,
		Files:   []ShardInfo{{File: "shard-0000.bin", Boards: 2, Rows: 4, Bytes: 99, CRC32C: 5}},
	}
	data, err := json.Marshal(good)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(bytes.Replace(data, []byte(`"version":1`), []byte(`"version":-1`), 1))
	f.Add(bytes.Replace(data, []byte(`"bin"`), []byte(`"exe"`), 1))
	f.Add(bytes.Replace(data, []byte(`"shards":1`), []byte(`"shards":1000000`), 1))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"format":"csv","shards":1,"boards":0,"rows":0,"files":[{"file":"shard-0000.csv"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return
		}
		if m.Shards != len(m.Files) || m.Shards <= 0 {
			t.Fatalf("accepted manifest with %d shards over %d files", m.Shards, len(m.Files))
		}
		boards, rows := 0, int64(0)
		for i, fi := range m.Files {
			if fi.File != shardName(i) {
				t.Fatalf("accepted shard name %q at index %d", fi.File, i)
			}
			if fi.Boards < 0 || fi.Rows < 0 || fi.Bytes < 0 {
				t.Fatalf("accepted negative counts in %q", fi.File)
			}
			boards += fi.Boards
			rows += fi.Rows
		}
		if boards != m.Boards || rows != m.Rows {
			t.Fatalf("accepted inconsistent totals: %d/%d boards, %d/%d rows",
				m.Boards, boards, m.Rows, rows)
		}
	})
}

// TestFuzzSeedsDecode keeps the happy-path fuzz seed honest: the framed
// record must actually decode back to the board it encodes.
func TestFuzzSeedsDecode(t *testing.T) {
	rd := recordio.NewReader(bytes.NewReader(fuzzSeedRecord(t)))
	body, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	b, rows, err := decodeBinBoard(body)
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != 7 || rows != 4 || len(b.Freq) != 2 {
		t.Fatalf("seed decoded to board %d with %d rows, %d conditions", b.ID, rows, len(b.Freq))
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatal("seed record has trailing bytes")
	}
}
