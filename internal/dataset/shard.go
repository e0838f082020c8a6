package dataset

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"ropuf/internal/recordio"
)

// Sharded on-disk corpus layout. A corpus directory holds
//
//	shard-0000.bin … shard-NNNN.bin
//	manifest.json
//
// Boards are assigned round-robin in arrival order: the i-th board written
// goes to shard i mod S. Because a ShardWriter is fed from one goroutine
// (StreamVT/StreamVTParallel emit in board order), every shard's boards
// are in ascending arrival order, and a reader that cycles the shards
// 0,1,…,S−1,0,1,… reconstructs the exact global write order — the shard
// layout is a pure inverse-free interleaving, no sort or merge needed.
//
// A shard is a magic string followed by one package recordio frame per
// board:
//
//	magic "ROPUFDS1" (8 bytes, once per file)
//	per board: one recordio frame (u32le length, u32le CRC32-C, body)
//	  body: u32le id  u16le gridW  u16le gridH  u32le numROs  u16le numConds
//	        numROs × (u16le x, u16le y)
//	        per condition: i32le milliVolts  i32le deciCelsius
//	                       numROs × f64le freq bits
//
// CRC32-C (Castagnoli) guards each record (its frame checksum) and — via
// the manifest — every shard file end to end. A corpus is complete once
// its manifest exists, so a torn frame in a shard is corruption, never a
// tail to truncate. All decode paths bound their allocations before
// trusting any length field; hostile shard or manifest bytes must produce
// loud errors, never panics or huge allocations (FuzzShardBin /
// FuzzManifest).

// Format names a shard file encoding in the manifest. FormatBin is the
// only one.
type Format string

// FormatBin is the framed binary board record format (~12 B/row).
const FormatBin Format = "bin"

const (
	// ManifestName is the corpus manifest's file name inside the directory.
	ManifestName = "manifest.json"

	manifestVersion = 1
	shardMagic      = "ROPUFDS1"

	// Decode-time bounds: a hostile length field may not provoke a larger
	// allocation than these before validation.
	maxShardROs     = 1 << 20
	maxShardConds   = 1 << 12
	maxManifestSize = 16 << 20

	// binBoardHeader is a record body's fixed prefix: id, grid, RO and
	// condition counts.
	binBoardHeader = 14
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ShardInfo is one shard file's manifest entry.
type ShardInfo struct {
	File   string `json:"file"`
	Boards int    `json:"boards"`
	Rows   int64  `json:"rows"`
	Bytes  int64  `json:"bytes"`
	CRC32C uint32 `json:"crc32c"`
}

// Manifest describes a sharded corpus: the shard roster with per-file
// board/row counts, byte sizes, and whole-file CRC32-C checksums.
type Manifest struct {
	Version int         `json:"version"`
	Format  Format      `json:"format"`
	Shards  int         `json:"shards"`
	Boards  int         `json:"boards"`
	Rows    int64       `json:"rows"`
	Files   []ShardInfo `json:"files"`
}

// parseManifest decodes and semantically validates manifest bytes.
func parseManifest(data []byte) (*Manifest, error) {
	if len(data) > maxManifestSize {
		return nil, fmt.Errorf("dataset: manifest is %d bytes, limit %d", len(data), maxManifestSize)
	}
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("dataset: parse manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("dataset: manifest version %d, want %d", m.Version, manifestVersion)
	}
	if m.Format != FormatBin {
		return nil, fmt.Errorf("dataset: manifest has unknown format %q (want %q)", m.Format, FormatBin)
	}
	if m.Shards != len(m.Files) {
		return nil, fmt.Errorf("dataset: manifest shard count %d != %d listed files", m.Shards, len(m.Files))
	}
	if m.Shards <= 0 {
		return nil, fmt.Errorf("dataset: manifest lists no shards")
	}
	boards, rows := 0, int64(0)
	for i, f := range m.Files {
		if f.File != shardName(i) {
			return nil, fmt.Errorf("dataset: manifest shard %d is named %q, want %q", i, f.File, shardName(i))
		}
		if f.Boards < 0 || f.Rows < 0 || f.Bytes < 0 {
			return nil, fmt.Errorf("dataset: manifest shard %q has negative counts", f.File)
		}
		boards += f.Boards
		rows += f.Rows
	}
	if boards != m.Boards {
		return nil, fmt.Errorf("dataset: manifest boards %d != %d summed over shards", m.Boards, boards)
	}
	if rows != m.Rows {
		return nil, fmt.Errorf("dataset: manifest rows %d != %d summed over shards", m.Rows, rows)
	}
	return &m, nil
}

func shardName(i int) string { return fmt.Sprintf("shard-%04d.bin", i) }

// shardFile is one open output shard with CRC/byte accounting of the
// exact bytes hitting disk.
type shardFile struct {
	name   string
	f      *os.File
	bw     *bufio.Writer
	crc    hash.Hash32
	bytes  int64
	boards int
	rows   int64
}

func (s *shardFile) Write(p []byte) (int, error) {
	n, err := s.f.Write(p)
	s.crc.Write(p[:n])
	s.bytes += int64(n)
	return n, err
}

// ShardWriter streams boards into a sharded corpus directory, assigning
// boards round-robin in arrival order, and writes the manifest on Close.
// It buffers one bufio.Writer per shard — memory is O(shards), constant in
// the board count. Not safe for concurrent use; StreamVTParallel already
// funnels its in-order callback through one goroutine.
type ShardWriter struct {
	dir    string
	shards []*shardFile
	next   int
	closed bool

	body, frame []byte // binary record scratch, reused across boards
}

// NewShardWriter creates dir (if needed) and opens shards shard files,
// truncating any previous corpus of the same shape. format must be
// FormatBin.
func NewShardWriter(dir string, shards int, format Format) (*ShardWriter, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("dataset: shard count must be positive, got %d", shards)
	}
	if format != FormatBin {
		return nil, fmt.Errorf("dataset: unknown shard format %q (want %q)", format, FormatBin)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: create corpus dir: %w", err)
	}
	w := &ShardWriter{dir: dir}
	for i := 0; i < shards; i++ {
		name := shardName(i)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			w.abort()
			return nil, fmt.Errorf("dataset: create shard: %w", err)
		}
		s := &shardFile{name: name, f: f, crc: crc32.New(castagnoli)}
		s.bw = bufio.NewWriterSize(s, 1<<16)
		w.shards = append(w.shards, s)
		if _, err := s.bw.WriteString(shardMagic); err != nil {
			w.abort()
			return nil, fmt.Errorf("dataset: write shard magic: %w", err)
		}
	}
	return w, nil
}

func (w *ShardWriter) abort() {
	for _, s := range w.shards {
		s.f.Close()
	}
	w.closed = true
}

// WriteBoard appends b to the next shard in round-robin order.
func (w *ShardWriter) WriteBoard(b *Board) error {
	if w.closed {
		return errors.New("dataset: write to closed ShardWriter")
	}
	s := w.shards[w.next%len(w.shards)]
	w.next++
	rows, err := w.writeBinBoard(s.bw, b)
	if err != nil {
		return err
	}
	s.boards++
	s.rows += rows
	return nil
}

// Close flushes and closes every shard, writes the manifest, and returns
// it. The writer is unusable afterwards.
func (w *ShardWriter) Close() (*Manifest, error) {
	if w.closed {
		return nil, errors.New("dataset: ShardWriter closed twice")
	}
	w.closed = true
	m := &Manifest{Version: manifestVersion, Format: FormatBin, Shards: len(w.shards)}
	var firstErr error
	for _, s := range w.shards {
		if err := s.bw.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := s.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		m.Boards += s.boards
		m.Rows += s.rows
		m.Files = append(m.Files, ShardInfo{
			File:   s.name,
			Boards: s.boards,
			Rows:   s.rows,
			Bytes:  s.bytes,
			CRC32C: s.crc.Sum32(),
		})
	}
	if firstErr != nil {
		return nil, fmt.Errorf("dataset: close shards: %w", firstErr)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("dataset: encode manifest: %w", err)
	}
	data = append(data, '\n')
	// Temp-file + rename so a crashed writer never leaves a plausible but
	// truncated manifest: the manifest's presence marks a complete corpus.
	tmp := filepath.Join(w.dir, ManifestName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return nil, fmt.Errorf("dataset: write manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(w.dir, ManifestName)); err != nil {
		return nil, fmt.Errorf("dataset: commit manifest: %w", err)
	}
	return m, nil
}

// writeBinBoard frames one board record into bw and returns its row count.
func (w *ShardWriter) writeBinBoard(bw *bufio.Writer, b *Board) (int64, error) {
	body, err := appendBinBoard(w.body[:0], b)
	if err != nil {
		return 0, err
	}
	w.body = body
	if len(body) > recordio.MaxPayload {
		return 0, fmt.Errorf("dataset: board %d record is %d bytes, limit %d", b.ID, len(body), recordio.MaxPayload)
	}
	w.frame = recordio.Append(w.frame[:0], body)
	if _, err := bw.Write(w.frame); err != nil {
		return 0, err
	}
	return int64(len(b.Freq)) * int64(b.NumROs()), nil
}

// appendBinBoard appends the body of one board record to dst.
func appendBinBoard(dst []byte, b *Board) ([]byte, error) {
	n := b.NumROs()
	conds := b.Conditions()
	switch {
	case b.ID < 0 || int64(b.ID) > math.MaxUint32:
		return nil, fmt.Errorf("dataset: board ID %d does not fit the shard format", b.ID)
	case b.GridW < 0 || b.GridW > math.MaxUint16 || b.GridH < 0 || b.GridH > math.MaxUint16:
		return nil, fmt.Errorf("dataset: board %d grid %dx%d does not fit the shard format", b.ID, b.GridW, b.GridH)
	case n > maxShardROs:
		return nil, fmt.Errorf("dataset: board %d has %d ROs, shard format limit %d", b.ID, n, maxShardROs)
	case len(conds) > maxShardConds:
		return nil, fmt.Errorf("dataset: board %d has %d conditions, shard format limit %d", b.ID, len(conds), maxShardConds)
	case len(b.Y) != n:
		return nil, fmt.Errorf("dataset: board %d has %d X but %d Y coordinates", b.ID, n, len(b.Y))
	}
	for _, c := range conds {
		if f := b.Freq[c]; len(f) != n {
			return nil, fmt.Errorf("dataset: board %d condition %v has %d ROs, want %d", b.ID, c, len(f), n)
		}
	}
	// The record is sized once and every field written at its offset.
	size := binBoardHeader + 4*n + len(conds)*(8+8*n)
	off := len(dst)
	dst = slices.Grow(dst, size)[:off+size]
	le := binary.LittleEndian
	le.PutUint32(dst[off:], uint32(b.ID))
	le.PutUint16(dst[off+4:], uint16(b.GridW))
	le.PutUint16(dst[off+6:], uint16(b.GridH))
	le.PutUint32(dst[off+8:], uint32(n))
	le.PutUint16(dst[off+12:], uint16(len(conds)))
	off += binBoardHeader
	ys := b.Y[:n]
	for i, x := range b.X {
		y := ys[i]
		// uint(v) > MaxUint16 also catches a negative v.
		if uint(x) > math.MaxUint16 || uint(y) > math.MaxUint16 {
			return nil, fmt.Errorf("dataset: board %d RO %d position (%d,%d) does not fit the shard format", b.ID, i, x, y)
		}
		le.PutUint32(dst[off:], uint32(x)|uint32(y)<<16) // x then y, each a u16le
		off += 4
	}
	for _, c := range conds {
		le.PutUint32(dst[off:], uint32(int32(c.MilliVolts)))
		le.PutUint32(dst[off+4:], uint32(int32(c.DeciCelsius)))
		off += 8
		for _, v := range b.Freq[c] {
			le.PutUint64(dst[off:], math.Float64bits(v))
			off += 8
		}
	}
	return dst, nil
}

// ShardReader iterates a sharded corpus without loading it: at any moment
// it holds one decoded board plus one buffered reader per shard.
type ShardReader struct {
	dir string
	man *Manifest
}

// OpenShards reads and validates dir's manifest: version and format,
// internal count consistency, and that every listed shard file exists with
// the manifest's byte size (checksums are verified during iteration, when
// the bytes are read anyway).
func OpenShards(dir string) (*ShardReader, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("dataset: read manifest: %w", err)
	}
	man, err := parseManifest(data)
	if err != nil {
		return nil, err
	}
	for _, fi := range man.Files {
		st, err := os.Stat(filepath.Join(dir, fi.File))
		if err != nil {
			return nil, fmt.Errorf("dataset: missing shard: %w", err)
		}
		if st.Size() != fi.Bytes {
			return nil, fmt.Errorf("dataset: shard %s is %d bytes, manifest says %d", fi.File, st.Size(), fi.Bytes)
		}
	}
	return &ShardReader{dir: dir, man: man}, nil
}

// Manifest returns the validated corpus manifest.
func (r *ShardReader) Manifest() *Manifest { return r.man }

// Boards streams every board to fn in the exact order they were written
// (the round-robin interleave of the shards), verifying each shard's
// CRC32-C, board count, and row count against the manifest as a side
// effect. Memory is constant in the corpus size.
func (r *ShardReader) Boards(fn func(*Board) error) error {
	cursors := make([]*binCursor, len(r.man.Files))
	defer func() {
		for _, c := range cursors {
			if c != nil {
				c.file.Close()
			}
		}
	}()
	for i, fi := range r.man.Files {
		c, err := openCursor(filepath.Join(r.dir, fi.File), fi)
		if err != nil {
			return err
		}
		cursors[i] = c
	}
	for seq := 0; seq < r.man.Boards; seq++ {
		c := cursors[seq%len(cursors)]
		b, err := c.next()
		if err != nil {
			return err
		}
		if err := fn(b); err != nil {
			return err
		}
	}
	for _, c := range cursors {
		if err := c.finish(); err != nil {
			return err
		}
	}
	return nil
}

// crcReader tees everything read from the underlying file through a
// CRC32-C accumulator, so a cursor that reaches EOF has checksummed the
// whole shard for free.
type crcReader struct {
	r     io.Reader
	crc   hash.Hash32
	bytes int64
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc.Write(p[:n])
	c.bytes += int64(n)
	return n, err
}

// openCursor opens one shard and checks its magic.
func openCursor(path string, fi ShardInfo) (*binCursor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: open shard: %w", err)
	}
	cr := &crcReader{r: f, crc: crc32.New(castagnoli)}
	br := bufio.NewReaderSize(cr, 1<<16)
	c := &binCursor{file: f, cr: cr, br: br, rd: recordio.NewReader(br), fi: fi}
	if err := c.readMagic(); err != nil {
		f.Close()
		return nil, err
	}
	return c, nil
}

// binCursor pulls board records from one shard file.
type binCursor struct {
	file   *os.File
	cr     *crcReader
	br     *bufio.Reader
	rd     *recordio.Reader // frames from br, after the magic
	fi     ShardInfo
	boards int
	rows   int64
}

func (c *binCursor) readMagic() error {
	var magic [8]byte
	if _, err := io.ReadFull(c.br, magic[:]); err != nil {
		return fmt.Errorf("dataset: shard %s: read magic: %w", c.fi.File, err)
	}
	if string(magic[:]) != shardMagic {
		return fmt.Errorf("dataset: shard %s: bad magic %q", c.fi.File, magic[:])
	}
	return nil
}

func (c *binCursor) next() (*Board, error) {
	body, err := c.rd.Next()
	if err == io.EOF {
		err = errors.New("truncated shard: record missing")
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: shard %s: %w", c.fi.File, err)
	}
	b, rows, err := decodeBinBoard(body)
	if err != nil {
		return nil, fmt.Errorf("dataset: shard %s: %w", c.fi.File, err)
	}
	c.boards++
	c.rows += rows
	return b, nil
}

// finish drains the shard to EOF, then asserts the cursor consumed exactly
// the manifest's boards and rows and that the file's bytes match the
// manifest checksum.
func (c *binCursor) finish() error {
	if _, err := io.Copy(io.Discard, c.br); err != nil {
		return fmt.Errorf("dataset: shard %s: %w", c.fi.File, err)
	}
	fi := c.fi
	switch {
	case c.boards != fi.Boards:
		return fmt.Errorf("dataset: shard %s has %d boards, manifest says %d", fi.File, c.boards, fi.Boards)
	case c.rows != fi.Rows:
		return fmt.Errorf("dataset: shard %s has %d rows, manifest says %d", fi.File, c.rows, fi.Rows)
	case c.cr.bytes != fi.Bytes:
		return fmt.Errorf("dataset: shard %s is %d bytes, manifest says %d", fi.File, c.cr.bytes, fi.Bytes)
	case c.cr.crc.Sum32() != fi.CRC32C:
		return fmt.Errorf("dataset: shard %s checksum %08x, manifest says %08x", fi.File, c.cr.crc.Sum32(), fi.CRC32C)
	}
	return nil
}

// decodeBinBoard decodes one board record body. Returns the board and its
// row count.
func decodeBinBoard(body []byte) (*Board, int64, error) {
	if len(body) < binBoardHeader {
		return nil, 0, errors.New("truncated board record")
	}
	le := binary.LittleEndian
	n := int(le.Uint32(body[8:]))
	nConds := int(le.Uint16(body[12:]))
	if n > maxShardROs {
		return nil, 0, fmt.Errorf("record claims %d ROs, limit %d", n, maxShardROs)
	}
	if nConds > maxShardConds {
		return nil, 0, fmt.Errorf("record claims %d conditions, limit %d", nConds, maxShardConds)
	}
	// The header fixes the body's exact length. Check it before allocating,
	// so a short record cannot make the counts claim megabytes.
	p := body[binBoardHeader:]
	if want := 4*int64(n) + int64(nConds)*(8+8*int64(n)); int64(len(p)) != want {
		return nil, 0, fmt.Errorf("board record has %d bytes after its header, %d ROs under %d conditions need %d",
			len(p), n, nConds, want)
	}
	b := &Board{
		ID:    int(le.Uint32(body[0:])),
		GridW: int(le.Uint16(body[4:])),
		GridH: int(le.Uint16(body[6:])),
		X:     make([]int, n),
		Y:     make([]int, n),
		Freq:  make(map[Condition][]float64, nConds),
	}
	for i := 0; i < n; i++ {
		b.X[i] = int(le.Uint16(p[0:]))
		b.Y[i] = int(le.Uint16(p[2:]))
		p = p[4:]
	}
	for ci := 0; ci < nConds; ci++ {
		cond := Condition{MilliVolts: int(int32(le.Uint32(p[0:]))), DeciCelsius: int(int32(le.Uint32(p[4:])))}
		p = p[8:]
		if _, dup := b.Freq[cond]; dup {
			return nil, 0, fmt.Errorf("record repeats condition %v", cond)
		}
		f := make([]float64, n)
		for i := range f {
			f[i] = math.Float64frombits(le.Uint64(p))
			p = p[8:]
		}
		b.Freq[cond] = f
	}
	return b, int64(nConds) * int64(n), nil
}
