package authserve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ropuf/internal/core"
	"ropuf/internal/fleet"
)

// TestWALGolden pins the write-ahead log's bytes: two enrolls and three
// challenge issuances from a fixed seed, written through the store into a
// one-shard directory with compaction off. A data directory written by an
// earlier build replays only while these bytes hold. Regenerate
// deliberately (and bump the manifest version) with:
//
//	go test ./internal/authserve -run TestWALGolden -update
func TestWALGolden(t *testing.T) {
	devices, err := fleet.Synthetic(2, 8, 5, 0x3A1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := Open(StoreOptions{Dir: dir, Shards: 1, Seed: 0x3A1, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range devices {
		if _, err := store.Enroll(d.ID, d.Pairs, core.Case2); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		dev, k int
	}{{0, 3}, {1, 2}, {0, 1}} {
		if _, _, _, err := store.Challenge(devices[c.dev].ID, c.k); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(walPathFor(dir, 0))
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "wal_v1.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to generate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WAL bytes drifted from %s (%d bytes, want %d); "+
			"existing data directories would no longer replay", golden, len(got), len(want))
	}
}
