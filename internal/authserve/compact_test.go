package authserve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ropuf/internal/auth"
	"ropuf/internal/core"
	"ropuf/internal/fleet"
	"ropuf/internal/rngx"
)

// TestFoldFailureKeepsFiles breaks, in turn, each condition a fold needs
// to copy every enroll body from the shard's files: a device the verifier
// holds has no enroll record in them, the snapshot holds a device the
// verifier does not, and a WAL frame fails its checksum. Each fold must
// fail, count as a snapshot failure, and leave the old snapshot and the
// WAL byte-identical, with no temp file behind.
func TestFoldFailureKeepsFiles(t *testing.T) {
	devices, err := fleet.Synthetic(4, 8, 7, 0xF01D)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, s *Store, walPath string)
	}{
		{"held device without a record", func(t *testing.T, s *Store, _ string) {
			sh := s.shards[0]
			sh.mu.Lock()
			defer sh.mu.Unlock()
			if _, err := sh.v.Enroll("ghost", devices[3].Pairs, core.Case2); err != nil {
				t.Fatal(err)
			}
		}},
		{"snapshot device not held", func(t *testing.T, s *Store, _ string) {
			sh := s.shards[0]
			sh.mu.Lock()
			defer sh.mu.Unlock()
			if !sh.v.Unenroll(devices[1].ID) {
				t.Fatal("snapshot device was not held")
			}
		}},
		{"WAL frame checksum", func(t *testing.T, _ *Store, walPath string) {
			f, err := os.OpenFile(walPath, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var crc [1]byte
			if _, err := f.ReadAt(crc[:], 4); err != nil {
				t.Fatal(err)
			}
			crc[0] ^= 0x01
			if _, err := f.WriteAt(crc[:], 4); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(StoreOptions{Shards: 1, Dir: dir, CompactBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for _, d := range devices[:2] {
				if _, err := s.Enroll(d.ID, d.Pairs, core.Case2); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.SaveAll(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Enroll(devices[2].ID, devices[2].Pairs, core.Case2); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := s.Challenge(devices[0].ID, 2); err != nil {
				t.Fatal(err)
			}
			snapPath, walPath := filepath.Join(dir, "shard-0000.snap"), walPathFor(dir, 0)
			tc.damage(t, s, walPath)
			snap, wal := mustRead(t, snapPath), mustRead(t, walPath)

			if err := s.SaveAll(); err == nil {
				t.Fatal("fold succeeded")
			} else {
				t.Logf("fold failed as it must: %v", err)
			}
			if got := s.SnapshotFailures(); got != 1 {
				t.Errorf("SnapshotFailures() = %d, want 1", got)
			}
			if !bytes.Equal(mustRead(t, snapPath), snap) {
				t.Error("the failed fold changed the old snapshot")
			}
			if !bytes.Equal(mustRead(t, walPath), wal) || s.WALBacklogBytes() != int64(len(wal)) {
				t.Errorf("the failed fold changed the WAL (backlog %d of %d bytes)", s.WALBacklogBytes(), len(wal))
			}
			if _, err := os.Stat(snapPath + ".tmp"); !os.IsNotExist(err) {
				t.Errorf("temp snapshot left behind: %v", err)
			}
		})
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFoldAllocations bounds what a fold allocates: a shard of 2,000
// snapshot-resident Case-2 devices of 128 pairs × 13 stages, whose bodies
// alone are ~3.5 MB, plus a one-record WAL. The fold streams the old
// snapshot and holds no body of it beyond the record it copies. Its
// output must equal a standalone verifier's Save of the same state.
func TestFoldAllocations(t *testing.T) {
	const devices, budget = 2000, 256 << 10
	pool, err := fleet.Synthetic(1, 128, 13, 0xF01D)
	if err != nil {
		t.Fatal(err)
	}
	enr, err := core.Enroll(pool[0].Pairs, core.Case2, 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	model, err := auth.NewVerifier(0.10, rngx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < devices; i++ {
		if err := model.ApplyEnroll(fmt.Sprintf("dev-%04d", i), enr); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	opt := StoreOptions{Shards: 1, Dir: dir, CompactBytes: -1}
	s, err := Open(opt) // writes the manifest
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	snapPath := filepath.Join(dir, "shard-0000.snap")
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(opt); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, ch, _, err := s.Challenge("dev-0000", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.MarkUsed("dev-0000", ch.Pairs); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = s.SaveAll()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("folding %d snapshot-resident devices and a one-record WAL allocated %d B", devices, grew)
	if grew >= budget {
		t.Errorf("the fold allocated %d B, budget %d", grew, budget)
	}
	if s.WALBacklogBytes() != 0 {
		t.Errorf("WAL holds %d bytes after the fold", s.WALBacklogBytes())
	}
	buf.Reset()
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustRead(t, snapPath), buf.Bytes()) {
		t.Error("the fold's snapshot differs from a standalone Save of the same state")
	}
}
