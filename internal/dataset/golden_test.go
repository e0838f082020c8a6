package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestShardBinGolden pins the binary corpus bytes: the tiny golden stream
// written as two bin shards, every shard file and the manifest compared
// byte for byte against testdata/binshards_v1/, which must also read back
// as the same boards. Regenerate deliberately (and bump the manifest
// version) with:
//
//	go test ./internal/dataset -run TestShardBinGolden -update
func TestShardBinGolden(t *testing.T) {
	cfg := goldenStreamConfig()
	dir := t.TempDir()
	sw, err := NewShardWriter(dir, 2, FormatBin)
	if err != nil {
		t.Fatal(err)
	}
	var want []*Board
	if err := StreamVT(cfg, func(b *Board) error {
		want = append(want, b)
		return sw.WriteBoard(b)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "binshards_v1")
	files := []string{"shard-0000.bin", "shard-0001.bin", ManifestName}
	if *updateGolden {
		if err := os.MkdirAll(golden, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range files {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if *updateGolden {
			if err := os.WriteFile(filepath.Join(golden, name), got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		pinned, err := os.ReadFile(filepath.Join(golden, name))
		if err != nil {
			t.Fatalf("reading golden (run with -update to generate): %v", err)
		}
		if !bytes.Equal(got, pinned) {
			t.Fatalf("%s drifted from %s (%d bytes, want %d)", name, golden, len(got), len(pinned))
		}
	}

	rd, err := OpenShards(golden)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	if err := rd.Boards(func(b *Board) error {
		equalBoards(t, "golden", b, want[i])
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("golden corpus read back %d boards, want %d", i, len(want))
	}
}
