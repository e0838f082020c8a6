package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative boards", []string{"-boards", "-3"}, "-boards must be positive"},
		{"env exceeds boards", []string{"-boards", "3"}, "do not fit in 3 boards"},
		{"env override exceeds boards", []string{"-boards", "10", "-env-boards", "11"}, "do not fit in 10 boards"},
		{"bad env sentinel", []string{"-env-boards", "-2"}, "-env-boards must be >= 0"},
		{"negative shards", []string{"-shards", "-1"}, "-shards must be non-negative"},
		{"format flag removed", []string{"-shards", "2", "-format", "bin"}, "flag provided but not defined: -format"},
		{"stray argument", []string{"extra"}, "unexpected arguments"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := runCLI(t, tc.args...)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) error %q, want it to contain %q", tc.args, err.Error(), tc.want)
			}
		})
	}
}

func TestRunEnvBoardOverrideIsHonored(t *testing.T) {
	// The old CLI silently clamped the default 5 env boards down to -boards;
	// now the fix is explicit: -env-boards makes the small run valid.
	out := filepath.Join(t.TempDir(), "small.csv")
	got, err := runCLI(t, "-boards", "3", "-env-boards", "1", "-out", out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(got, "wrote 3 boards") {
		t.Fatalf("output %q does not report 3 boards", got)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("output file: %v", err)
	}
}

func TestRunShardedGenerateAndCheck(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "corpus")
	got, err := runCLI(t, "-boards", "6", "-env-boards", "2", "-workers", "3",
		"-shards", "2", "-out", dir)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if !strings.Contains(got, "wrote 6 boards") {
		t.Fatalf("generate output %q does not report 6 boards", got)
	}

	check, err := runCLI(t, "-check", dir)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if !strings.Contains(check, "verified 6 boards") {
		t.Fatalf("check output %q does not report 6 boards", check)
	}

	// Flip one byte in a shard: -check must fail loudly.
	shard := filepath.Join(dir, "shard-0001.bin")
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatalf("read shard: %v", err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(shard, data, 0o644); err != nil {
		t.Fatalf("write shard: %v", err)
	}
	if _, err := runCLI(t, "-check", dir); err == nil {
		t.Fatal("check accepted a corrupted shard")
	}
}

// TestRunShardedWorkersAgree: the corpus a worker pool writes is the
// serial one, file for file and byte for byte, manifest included.
func TestRunShardedWorkersAgree(t *testing.T) {
	base := t.TempDir()
	serial, pooled := filepath.Join(base, "serial"), filepath.Join(base, "pooled")
	for dir, workers := range map[string]string{serial: "1", pooled: "4"} {
		if _, err := runCLI(t, "-boards", "6", "-env-boards", "2", "-workers", workers,
			"-shards", "3", "-out", dir); err != nil {
			t.Fatalf("generate with %s workers: %v", workers, err)
		}
	}
	entries, err := os.ReadDir(serial)
	if err != nil {
		t.Fatal(err)
	}
	if pe, err := os.ReadDir(pooled); err != nil || len(pe) != len(entries) {
		t.Fatalf("pooled corpus has %d files (err %v), serial has %d", len(pe), err, len(entries))
	}
	for _, e := range entries {
		a, err := os.ReadFile(filepath.Join(serial, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(pooled, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between 1 and 4 workers", e.Name())
		}
	}
}

// TestRunCheckRejectsCSVCorpus: a corpus written with the retired CSV
// shard format fails -check at its manifest, naming the format.
func TestRunCheckRejectsCSVCorpus(t *testing.T) {
	dir := t.TempDir()
	header := "board,ro,x,y,millivolts,decicelsius,freq_mhz\n"
	manifest := fmt.Sprintf(`{"version":1,"format":"csv","shards":1,"boards":0,"rows":0,`+
		`"files":[{"file":"shard-0000.csv","boards":0,"rows":0,"bytes":%d,"crc32c":0}]}`, len(header))
	if err := os.WriteFile(filepath.Join(dir, "shard-0000.csv"), []byte(header), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := runCLI(t, "-check", dir)
	if err == nil {
		t.Fatal("check accepted a CSV corpus")
	}
	if want := `unknown format "csv"`; !strings.Contains(err.Error(), want) {
		t.Fatalf("check error %q does not contain %q", err.Error(), want)
	}
}

func TestRunMetricsAddr(t *testing.T) {
	out := filepath.Join(t.TempDir(), "m.csv")
	got, err := runCLI(t, "-boards", "2", "-env-boards", "0",
		"-metrics-addr", "127.0.0.1:0", "-out", out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(got, "metrics on http://") {
		t.Fatalf("output %q does not announce the metrics server", got)
	}
}

// TestMetricsRegistryHasRuntimeSeries: a scrape of a long-running
// generation must include process runtime health, not just progress
// counters.
func TestMetricsRegistryHasRuntimeSeries(t *testing.T) {
	reg, boards, rows := newMetricsRegistry()
	boards.Inc()
	rows.Add(3)
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"ropuf_datasetgen_boards_total 1",
		"ropuf_datasetgen_rows_total 3",
		"ropuf_runtime_goroutines",
		"ropuf_runtime_heap_alloc_bytes",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("registry exposition missing %q:\n%s", want, text)
		}
	}
}
