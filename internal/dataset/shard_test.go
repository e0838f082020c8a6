package dataset

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ropuf/internal/recordio"
)

// tinyVTConfig trades the 512-RO grid for a 4×4 one so hostile-file tests
// can rebuild corpora cheaply.
func tinyVTConfig() VTConfig {
	cfg := DefaultVTConfig()
	cfg.NumBoards = 5
	cfg.NumEnvBoards = 2
	cfg.GridW = 4
	cfg.GridH = 4
	return cfg
}

// writeCorpus shards ds into a fresh directory and returns it with the
// manifest.
func writeCorpus(t *testing.T, ds *Dataset, shards int) (string, *Manifest) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "corpus")
	w, err := NewShardWriter(dir, shards, FormatBin)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range ds.Boards {
		if err := w.WriteBoard(b); err != nil {
			t.Fatal(err)
		}
	}
	man, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	return dir, man
}

func TestShardRoundTrip(t *testing.T) {
	ds, err := GenerateVT(smallVTConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 3, 7, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir, man := writeCorpus(t, ds, shards)
			if man.Shards != shards || man.Boards != len(ds.Boards) {
				t.Fatalf("manifest %d shards %d boards, want %d and %d",
					man.Shards, man.Boards, shards, len(ds.Boards))
			}
			r, err := OpenShards(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r.Manifest(), man) {
				t.Fatalf("reader manifest %+v, writer returned %+v", r.Manifest(), man)
			}
			var got []*Board
			if err := r.Boards(func(b *Board) error {
				got = append(got, b)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(ds.Boards) {
				t.Fatalf("read %d boards, wrote %d", len(got), len(ds.Boards))
			}
			var rows int64
			for i, b := range got {
				// Cyclic shard reading must reproduce the global write
				// order exactly, not just the set of boards.
				if b.ID != ds.Boards[i].ID {
					t.Fatalf("position %d holds board %d, want %d", i, b.ID, ds.Boards[i].ID)
				}
				equalBoards(t, "round trip", ds.Boards[i], b)
				for _, f := range b.Freq {
					rows += int64(len(f))
				}
			}
			if rows != man.Rows {
				t.Fatalf("read %d rows, manifest says %d", rows, man.Rows)
			}
		})
	}
}

// TestShardCorpusMatchesCSVExport streams one generation into the CSV
// export and a sharded corpus in the same pass, reads the corpus back into
// a second CSV export, and requires the two byte for byte. That covers
// every row of the swept boards, which stream_v1.golden never reaches. The
// shard counts span one file, a count that splits the swept boards, and
// more shards than boards (two stay empty).
func TestShardCorpusMatchesCSVExport(t *testing.T) {
	cfg := tinyVTConfig()
	for _, shards := range []int{1, 3, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var direct, readBack bytes.Buffer
			cw, err := NewCSVWriter(&direct)
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(t.TempDir(), "corpus")
			sw, err := NewShardWriter(dir, shards, FormatBin)
			if err != nil {
				t.Fatal(err)
			}
			if err := StreamVT(cfg, func(b *Board) error {
				if err := cw.WriteBoard(b); err != nil {
					return err
				}
				return sw.WriteBoard(b)
			}); err != nil {
				t.Fatal(err)
			}
			if err := cw.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, err := sw.Close(); err != nil {
				t.Fatal(err)
			}
			if nominal := int64(cfg.NumBoards * cfg.GridW * cfg.GridH); cw.Rows() <= nominal {
				t.Fatalf("export has %d rows, no more than the %d nominal ones: no swept boards", cw.Rows(), nominal)
			}

			r, err := OpenShards(dir)
			if err != nil {
				t.Fatal(err)
			}
			back, err := NewCSVWriter(&readBack)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Boards(back.WriteBoard); err != nil {
				t.Fatal(err)
			}
			if err := back.Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(direct.Bytes(), readBack.Bytes()) {
				t.Fatalf("corpus read back as %d CSV bytes (%d rows), export has %d (%d rows)",
					readBack.Len(), back.Rows(), direct.Len(), cw.Rows())
			}
		})
	}
}

func TestShardWriterValidation(t *testing.T) {
	if _, err := NewShardWriter(t.TempDir(), 0, FormatBin); err == nil {
		t.Fatal("accepted zero shards")
	}
	if _, err := NewShardWriter(t.TempDir(), 2, Format("csv")); err == nil {
		t.Fatal("accepted the csv format")
	}
	ds, err := GenerateVT(tinyVTConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewShardWriter(filepath.Join(t.TempDir(), "c"), 2, FormatBin)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBoard(ds.Boards[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBoard(ds.Boards[1]); err == nil {
		t.Fatal("WriteBoard accepted after Close")
	}
	if _, err := w.Close(); err == nil {
		t.Fatal("Close accepted twice")
	}
}

func TestParseManifestRejects(t *testing.T) {
	good := func() *Manifest {
		return &Manifest{
			Version: 2,
			Format:  FormatBin,
			Shards:  2,
			Boards:  3,
			Rows:    30,
			Files: []ShardInfo{
				{File: "shard-0000.bin", Boards: 2, Rows: 20, Bytes: 100, CRC32C: 1},
				{File: "shard-0001.bin", Boards: 1, Rows: 10, Bytes: 50, CRC32C: 2},
			},
		}
	}
	encode := func(m *Manifest) []byte {
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if _, err := parseManifest(encode(good())); err != nil {
		t.Fatalf("rejected the good manifest: %v", err)
	}

	cases := []struct {
		name   string
		data   []byte
		mutate func(*Manifest)
		want   string
	}{
		{name: "oversized", data: bytes.Repeat([]byte{' '}, maxManifestSize+1), want: "limit"},
		{name: "not json", data: []byte("??"), want: "parse manifest"},
		{name: "unknown field", data: []byte(`{"version":2,"format":"bin","shards":0,"boards":0,"rows":0,"files":[],"extra":1}`), want: "parse manifest"},
		{name: "version 1", mutate: func(m *Manifest) { m.Version = 1 }, want: "version 1, want 2: regenerate the corpus"},
		{name: "version 3", mutate: func(m *Manifest) { m.Version = 3 }, want: "version 3"},
		{name: "unknown format", mutate: func(m *Manifest) { m.Format = "xml" }, want: "unknown format"},
		{name: "missing format", mutate: func(m *Manifest) { m.Format = "" }, want: `unknown format ""`},
		{name: "csv format", mutate: func(m *Manifest) {
			m.Format = "csv"
			for i := range m.Files {
				m.Files[i].File = fmt.Sprintf("shard-%04d.csv", i)
			}
		}, want: `unknown format "csv"`},
		{name: "shard count mismatch", mutate: func(m *Manifest) { m.Shards = 3 }, want: "shard count"},
		{name: "no shards", mutate: func(m *Manifest) { m.Shards = 0; m.Boards = 0; m.Rows = 0; m.Files = nil }, want: "no shards"},
		{name: "misnamed shard", mutate: func(m *Manifest) { m.Files[1].File = "shard-0002.bin" }, want: "named"},
		{name: "wrong extension", mutate: func(m *Manifest) { m.Files[0].File = "shard-0000.csv" }, want: "named"},
		{name: "negative rows", mutate: func(m *Manifest) { m.Files[0].Rows = -1; m.Rows = 9 }, want: "negative"},
		{name: "board sum mismatch", mutate: func(m *Manifest) { m.Boards = 4 }, want: "boards"},
		{name: "row sum mismatch", mutate: func(m *Manifest) { m.Rows = 31 }, want: "rows"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.data
			if tc.mutate != nil {
				m := good()
				tc.mutate(m)
				data = encode(m)
			}
			_, err := parseManifest(data)
			if err == nil {
				t.Fatal("hostile manifest accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err.Error(), tc.want)
			}
		})
	}
}

// TestDecodeBinBoardRejects drives every rejection in decodeBinBoard and
// requires each to happen before the record's counts can size an
// allocation: a body whose grid claims 2^20 ROs under 4,096 conditions
// must not cost megabytes to refuse.
func TestDecodeBinBoardRejects(t *testing.T) {
	valid := fuzzSeedBody(t) // a 2×1 grid under 2 conditions
	if _, _, err := decodeBinBoard(valid); err != nil {
		t.Fatalf("rejected the valid record: %v", err)
	}
	header := func(w, h, conds uint16) []byte {
		hdr := append([]byte{}, valid[:binBoardHeader]...)
		binary.LittleEndian.PutUint16(hdr[4:], w)
		binary.LittleEndian.PutUint16(hdr[6:], h)
		binary.LittleEndian.PutUint16(hdr[8:], conds)
		return hdr
	}
	// The second condition's (mV, dC) pair overwritten with the first's.
	const n = 2
	first := binBoardHeader
	second := first + 8 + 8*n
	repeated := append([]byte{}, valid...)
	copy(repeated[second:second+8], valid[first:first+8])

	cases := []struct {
		name string
		body []byte
		want string
	}{
		{"truncated header", valid[:binBoardHeader-1], "truncated board record"},
		{"empty grid", header(0, 1, 1), "empty 0x1 grid"},
		{"grid with no rows", header(16, 0, 0), "empty 16x0 grid"},
		{"ROs over limit", header(1025, 1024, 1), "ROs, limit"},
		{"largest grid over limit", header(0xFFFF, 0xFFFF, 1), "ROs, limit"},
		{"conditions over limit", header(1, 1, maxShardConds+1), "conditions, limit"},
		{"header claims the maximum counts", header(1024, 1024, maxShardConds), "need"},
		{"one condition of many", append(header(1024, 1024, maxShardConds), make([]byte, 8+8*maxShardROs)...), "need"},
		{"one byte short", valid[:len(valid)-1], "need"},
		{"one trailing byte", append(append([]byte{}, valid...), 0), "need"},
		{"repeated condition", repeated, "repeats condition"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			_, _, err := decodeBinBoard(tc.body)
			runtime.ReadMemStats(&ms)
			if err == nil {
				t.Fatal("hostile record accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err.Error(), tc.want)
			}
			if grew := ms.TotalAlloc - before; grew > 1<<20 {
				t.Fatalf("rejecting a %d-byte record allocated %d bytes", len(tc.body), grew)
			}
		})
	}
}

// readCorpus runs the full streaming read and returns its error.
func readCorpus(dir string) error {
	r, err := OpenShards(dir)
	if err != nil {
		return err
	}
	return r.Boards(func(*Board) error { return nil })
}

// editManifest rewrites the corpus manifest in dir through edit.
func editManifest(t *testing.T, dir string, edit func(*Manifest)) {
	t.Helper()
	path := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	edit(&m)
	if data, err = json.Marshal(&m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestShardReaderHostileFiles(t *testing.T) {
	ds, err := GenerateVT(tinyVTConfig())
	if err != nil {
		t.Fatal(err)
	}
	shard1 := shardName(1)
	cases := []struct {
		name    string
		tamper  func(t *testing.T, dir string)
		openErr bool // expect OpenShards itself to fail
	}{
		{
			name:    "missing shard",
			openErr: true,
			tamper: func(t *testing.T, dir string) {
				if err := os.Remove(filepath.Join(dir, shard1)); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name:    "truncated shard",
			openErr: true,
			tamper: func(t *testing.T, dir string) {
				path := filepath.Join(dir, shard1)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name:    "trailing garbage",
			openErr: true,
			tamper: func(t *testing.T, dir string) {
				f, err := os.OpenFile(filepath.Join(dir, shard1), os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteString("junk"); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			// Same size, different bytes: only the CRC (or record parse)
			// can catch it, and must.
			name: "flipped byte",
			tamper: func(t *testing.T, dir string) {
				path := filepath.Join(dir, shard1)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/2] ^= 0x20
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "corrupted header",
			tamper: func(t *testing.T, dir string) {
				path := filepath.Join(dir, shard1)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[0] ^= 0xFF // magic byte
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name:    "manifest claims extra shard",
			openErr: true,
			tamper: func(t *testing.T, dir string) {
				path := filepath.Join(dir, ManifestName)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				var m Manifest
				if err := json.Unmarshal(data, &m); err != nil {
					t.Fatal(err)
				}
				m.Shards++
				m.Files = append(m.Files, ShardInfo{File: shardName(m.Shards - 1)})
				out, err := json.Marshal(&m)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, out, 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			// A record cut short and re-framed, with the manifest's size and
			// checksum rewritten to match: every checksum agrees, so only
			// the record's own length check can refuse it.
			name: "short record under consistent checksums",
			tamper: func(t *testing.T, dir string) {
				path := filepath.Join(dir, shard1)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				body, err := recordio.NewReader(bytes.NewReader(data[len(shardMagic):])).Next()
				if err != nil {
					t.Fatal(err)
				}
				rest := data[len(shardMagic)+recordio.HeaderLen+len(body):]
				out := append([]byte(shardMagic), recordio.Append(nil, body[:len(body)-8])...)
				out = append(out, rest...)
				if err := os.WriteFile(path, out, 0o644); err != nil {
					t.Fatal(err)
				}
				mpath := filepath.Join(dir, ManifestName)
				mdata, err := os.ReadFile(mpath)
				if err != nil {
					t.Fatal(err)
				}
				var m Manifest
				if err := json.Unmarshal(mdata, &m); err != nil {
					t.Fatal(err)
				}
				m.Files[1].Bytes = int64(len(out))
				m.Files[1].CRC32C = crc32.Checksum(out, castagnoli)
				if mdata, err = json.Marshal(&m); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(mpath, mdata, 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			// The manifest moves a board from shard 1 to shard 0; the totals
			// still agree, so only the per-shard count at EOF can refuse it.
			name: "manifest moves a board between shards",
			tamper: func(t *testing.T, dir string) {
				editManifest(t, dir, func(m *Manifest) {
					m.Files[0].Boards++
					m.Files[1].Boards--
				})
			},
		},
		{
			name: "manifest moves a row between shards",
			tamper: func(t *testing.T, dir string) {
				editManifest(t, dir, func(m *Manifest) {
					m.Files[0].Rows++
					m.Files[1].Rows--
				})
			},
		},
		{
			// Every byte intact; only the checksum at EOF can refuse it.
			name: "manifest checksum off",
			tamper: func(t *testing.T, dir string) {
				editManifest(t, dir, func(m *Manifest) { m.Files[1].CRC32C ^= 1 })
			},
		},
		{
			name: "boards swapped across shards",
			tamper: func(t *testing.T, dir string) {
				// Cross-wire two shard files; per-shard CRC or board/row
				// accounting must notice even though each file is intact.
				a := filepath.Join(dir, shardName(0))
				b := filepath.Join(dir, shard1)
				da, err := os.ReadFile(a)
				if err != nil {
					t.Fatal(err)
				}
				db, err := os.ReadFile(b)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(a, db, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(b, da, 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, _ := writeCorpus(t, ds, 2)
			if err := readCorpus(dir); err != nil {
				t.Fatalf("pristine corpus failed: %v", err)
			}
			tc.tamper(t, dir)
			r, err := OpenShards(dir)
			if tc.openErr {
				if err == nil {
					t.Fatal("OpenShards accepted the tampered corpus")
				}
				return
			}
			if err != nil {
				// Stricter than required: caught at open already.
				return
			}
			if err := r.Boards(func(*Board) error { return nil }); err == nil {
				t.Fatal("streaming read accepted the tampered corpus")
			}
		})
	}
}

// appendBinBoardByField is the shard encoder as it was before records were
// sized once: it appends each field in turn. It is the oracle for the
// one-pass appendBinBoard on valid boards.
func appendBinBoardByField(dst []byte, b *Board) []byte {
	var scratch [8]byte
	conds := b.Conditions()
	binary.LittleEndian.PutUint32(scratch[0:4], uint32(b.ID))
	dst = append(dst, scratch[:4]...)
	binary.LittleEndian.PutUint16(scratch[0:2], uint16(b.GridW))
	binary.LittleEndian.PutUint16(scratch[2:4], uint16(b.GridH))
	dst = append(dst, scratch[:4]...)
	binary.LittleEndian.PutUint16(scratch[0:2], uint16(len(conds)))
	dst = append(dst, scratch[:2]...)
	for _, c := range conds {
		binary.LittleEndian.PutUint32(scratch[0:4], uint32(int32(c.MilliVolts)))
		binary.LittleEndian.PutUint32(scratch[4:8], uint32(int32(c.DeciCelsius)))
		dst = append(dst, scratch[:8]...)
		for _, v := range b.Freq[c] {
			binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
			dst = append(dst, scratch[:8]...)
		}
	}
	return dst
}

// TestAppendBinBoardMatchesByField holds the one-pass encoder to the
// field-by-field one, appending to an empty and to a non-empty buffer, for
// nominal-only, swept, extra-condition and single-RO boards.
func TestAppendBinBoardMatchesByField(t *testing.T) {
	ds, err := GenerateVT(tinyVTConfig())
	if err != nil {
		t.Fatal(err)
	}
	boards := []*Board{ds.Boards[0], ds.EnvBoards()[0]}
	extra := *ds.EnvBoards()[0]
	extra.Freq = maps.Clone(extra.Freq)
	extra.Freq[Condition{MilliVolts: -900, DeciCelsius: -400}] = extra.Freq[NominalCondition]
	extra.Freq[Condition{MilliVolts: 1500, DeciCelsius: 1000}] = extra.Freq[NominalCondition]
	single := &Board{ID: 3, GridW: 1, GridH: 1, Freq: map[Condition][]float64{NominalCondition: {95.5}}}
	boards = append(boards, &extra, single)
	for _, b := range boards {
		for _, prefix := range [][]byte{nil, []byte("prefix")} {
			got, err := appendBinBoard(slices.Clone(prefix), b)
			if err != nil {
				t.Fatal(err)
			}
			if want := appendBinBoardByField(slices.Clone(prefix), b); !bytes.Equal(got, want) {
				t.Fatalf("board %d (%d conditions) after %q: %d bytes differ from the field-by-field encoding (%d bytes)",
					b.ID, len(b.Freq), prefix, len(got), len(want))
			}
		}
	}
}

// TestAppendBinBoardRejects drives every refusal in appendBinBoard: a
// board the record cannot hold, or whose condition vectors disagree with
// its grid, is an error and never a record.
func TestAppendBinBoardRejects(t *testing.T) {
	board := func(id, w, h int, freqs ...[]float64) *Board {
		b := &Board{ID: id, GridW: w, GridH: h, Freq: map[Condition][]float64{}}
		for i, f := range freqs {
			b.Freq[Condition{MilliVolts: 1000 + i, DeciCelsius: 250}] = f
		}
		return b
	}
	manyConds := board(1, 1, 1)
	for i := 0; i <= maxShardConds; i++ {
		manyConds.Freq[Condition{MilliVolts: i, DeciCelsius: 0}] = []float64{1}
	}
	cases := []struct {
		name  string
		board *Board
		want  string
	}{
		{"negative ID", board(-1, 1, 1, []float64{1}), "does not fit"},
		{"ID over u32", board(math.MaxUint32+1, 1, 1, []float64{1}), "does not fit"},
		{"empty grid", board(1, 0, 0), "grid 0x0 does not fit"},
		{"grid with no columns", board(1, 0, 4, []float64{}), "grid 0x4 does not fit"},
		{"grid side over u16", board(1, math.MaxUint16+1, 1, make([]float64, math.MaxUint16+1)), "does not fit"},
		{"grid over maxShardROs", board(1, 1025, 1024), "shard format limit"},
		{"conditions over limit", manyConds, "conditions, shard format limit"},
		{"short condition vector", board(1, 2, 2, []float64{1, 2, 3, 4}, []float64{1, 2, 3}), "has 3 ROs, its 2x2 grid 4"},
		{"long condition vector", board(1, 2, 1, []float64{1, 2, 3}), "has 3 ROs, its 2x1 grid 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, err := appendBinBoard(nil, tc.board)
			if err == nil {
				t.Fatalf("encoded a %d-byte record", len(body))
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err.Error(), tc.want)
			}
		})
	}
}

// TestRefusesVersion1Corpus requires a version-1 corpus, which stored RO
// positions in every record, to be refused by name: its manifest at
// OpenShards, and a ROPUFDS1 shard under a current manifest when the
// shard is read.
func TestRefusesVersion1Corpus(t *testing.T) {
	ds, err := GenerateVT(tinyVTConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir, _ := writeCorpus(t, ds, 2)
	editManifest(t, dir, func(m *Manifest) { m.Version = 1 })
	if _, err := OpenShards(dir); err == nil || !strings.Contains(err.Error(), "version 1, want 2: regenerate the corpus") {
		t.Fatalf("OpenShards of a version-1 manifest: %v", err)
	}

	dir, _ = writeCorpus(t, ds, 2)
	path := filepath.Join(dir, shardName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "ROPUFDS1")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = readCorpus(dir)
	if err == nil || !strings.Contains(err.Error(), "shard-0001.bin is format version 1, want 2: regenerate the corpus") {
		t.Fatalf("reading a ROPUFDS1 shard: %v", err)
	}
}
