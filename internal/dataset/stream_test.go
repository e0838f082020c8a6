package dataset

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"ropuf/internal/rngx"
)

var updateGolden = flag.Bool("update", false, "rewrite golden dataset files")

// equalBoards fails the test unless a and b match bit for bit: identity,
// geometry, positions, and every frequency under every condition.
func equalBoards(t *testing.T, label string, a, b *Board) {
	t.Helper()
	if a.ID != b.ID {
		t.Fatalf("%s: ID %d != %d", label, a.ID, b.ID)
	}
	if a.GridW != b.GridW || a.GridH != b.GridH {
		t.Fatalf("%s: board %d grid %dx%d != %dx%d", label, a.ID, a.GridW, a.GridH, b.GridW, b.GridH)
	}
	if len(a.X) != len(b.X) || len(a.Y) != len(b.Y) {
		t.Fatalf("%s: board %d position count mismatch", label, a.ID)
	}
	for i := range a.X {
		if a.X[i] != b.X[i] || a.Y[i] != b.Y[i] {
			t.Fatalf("%s: board %d RO %d at (%d,%d) != (%d,%d)",
				label, a.ID, i, a.X[i], a.Y[i], b.X[i], b.Y[i])
		}
	}
	if len(a.Freq) != len(b.Freq) {
		t.Fatalf("%s: board %d has %d conditions != %d", label, a.ID, len(a.Freq), len(b.Freq))
	}
	for cond, fa := range a.Freq {
		fb, ok := b.Freq[cond]
		if !ok {
			t.Fatalf("%s: board %d missing condition %v", label, a.ID, cond)
		}
		if len(fa) != len(fb) {
			t.Fatalf("%s: board %d cond %v has %d ROs != %d", label, a.ID, cond, len(fa), len(fb))
		}
		for i := range fa {
			if fa[i] != fb[i] {
				t.Fatalf("%s: board %d cond %v RO %d: %x != %x",
					label, a.ID, cond, i, fa[i], fb[i])
			}
		}
	}
}

func collectStream(t *testing.T, cfg VTConfig) []*Board {
	t.Helper()
	var boards []*Board
	if err := StreamVT(cfg, func(b *Board) error {
		boards = append(boards, b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return boards
}

func TestStreamVTMatchesGenerateVT(t *testing.T) {
	cfg := smallVTConfig()
	ds, err := GenerateVT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamed := collectStream(t, cfg)
	if len(streamed) != len(ds.Boards) {
		t.Fatalf("streamed %d boards, generated %d", len(streamed), len(ds.Boards))
	}
	for i := range streamed {
		equalBoards(t, "stream vs generate", ds.Boards[i], streamed[i])
	}
}

// TestStreamVTAllocBudget bounds what the serial stream allocates per
// board, which sets the corpus build's GC rate and peak RSS. The emitted
// board itself owns ~12 KB (X and Y as []int plus its nominal
// frequencies); a die allocated per board, or an env table built for a
// nominal-only board, breaks the budget.
func TestStreamVTAllocBudget(t *testing.T) {
	cfg := DefaultVTConfig()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	if err := StreamVT(cfg, func(*Board) error { return nil }); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	perBoard := (ms.TotalAlloc - before) / uint64(cfg.NumBoards)
	t.Logf("StreamVT allocated %d B per board", perBoard)
	if perBoard > 20000 {
		t.Fatalf("StreamVT allocated %d B per board, budget 20000", perBoard)
	}
}

func TestStreamVTParallelMatchesSerial(t *testing.T) {
	cfg := smallVTConfig()
	serial := collectStream(t, cfg)
	for _, workers := range []int{2, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var got []*Board
			err := StreamVTParallel(context.Background(), cfg, workers, func(b *Board) error {
				got = append(got, b)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(serial) {
				t.Fatalf("emitted %d boards, want %d", len(got), len(serial))
			}
			for i := range got {
				if got[i].ID != i {
					t.Fatalf("board %d emitted at position %d: parallel emission out of order", got[i].ID, i)
				}
				equalBoards(t, "parallel vs serial", serial[i], got[i])
			}
		})
	}
}

func TestStreamVTValidatesConfig(t *testing.T) {
	cfg := smallVTConfig()
	cfg.NumBoards = 0
	fn := func(*Board) error { return nil }
	if err := StreamVT(cfg, fn); err == nil {
		t.Fatal("StreamVT accepted NumBoards=0")
	}
	if err := StreamVTParallel(context.Background(), cfg, 4, fn); err == nil {
		t.Fatal("StreamVTParallel accepted NumBoards=0")
	}
}

func TestStreamVTParallelPropagatesSinkError(t *testing.T) {
	cfg := smallVTConfig()
	sinkErr := errors.New("sink full")
	seen := 0
	err := StreamVTParallel(context.Background(), cfg, 4, func(b *Board) error {
		seen++
		if seen == 3 {
			return sinkErr
		}
		return nil
	})
	if !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v, want %v", err, sinkErr)
	}
	if seen != 3 {
		t.Fatalf("sink invoked %d times after its error, want 3", seen)
	}
}

func TestStreamVTParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := StreamVTParallel(ctx, smallVTConfig(), 4, func(*Board) error { return nil })
	if err == nil {
		t.Fatal("StreamVTParallel succeeded under a cancelled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
}

// TestStreamVTParallelLeavesNoGoroutines pins the pipeline's shutdown in
// each way StreamVTParallel can end: success, a sink error, a context
// cancelled before the call, and a context the sink cancels mid-stream.
// After it returns, the goroutine count must fall back to its baseline;
// the poll only allows for a goroutine's last step on its way out.
func TestStreamVTParallelLeavesNoGoroutines(t *testing.T) {
	cfg := smallVTConfig()
	cfg.NumBoards = 24
	sinkErr := errors.New("sink full")
	cases := []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		sink func(seen int, cancel context.CancelFunc) error
		want error
	}{
		{"success", plainContext, func(int, context.CancelFunc) error { return nil }, nil},
		{"sink error at board 3", plainContext, func(seen int, _ context.CancelFunc) error {
			if seen == 3 {
				// Let the workers refill the slot queue first, so a caller
				// that stopped draining it would strand the seed goroutine.
				time.Sleep(20 * time.Millisecond)
				return sinkErr
			}
			return nil
		}, sinkErr},
		{"cancelled before the call", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, cancel
		}, func(int, context.CancelFunc) error { return nil }, context.Canceled},
		{"sink cancels at board 5", plainContext, func(seen int, cancel context.CancelFunc) error {
			if seen == 5 {
				cancel()
			}
			return nil
		}, context.Canceled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := tc.ctx()
			defer cancel()
			seen := 0
			err := StreamVTParallel(ctx, cfg, 2, func(*Board) error {
				seen++
				return tc.sink(seen, cancel)
			})
			switch {
			case tc.want == nil && err != nil:
				t.Fatal(err)
			case tc.want == nil && seen != cfg.NumBoards:
				t.Fatalf("sink saw %d of %d boards", seen, cfg.NumBoards)
			case tc.want != nil && !errors.Is(err, tc.want):
				t.Fatalf("err = %v, want %v in the chain", err, tc.want)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines left after return, baseline %d", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

func plainContext() (context.Context, context.CancelFunc) {
	return context.WithCancel(context.Background())
}

// goldenStreamConfig is deliberately tiny so the golden file stays small.
func goldenStreamConfig() VTConfig {
	cfg := DefaultVTConfig()
	cfg.NumBoards = 3
	cfg.NumEnvBoards = 1
	cfg.GridW = 4
	cfg.GridH = 4
	return cfg
}

// TestStreamVTGolden pins the exact byte stream of the generator — the first
// rows of the tiny corpus plus the root RNG's post-generation state — so any
// accidental change to the RNG draw order, the measurement pipeline, or the
// CSV encoding shows up as a golden diff. Regenerate deliberately with:
//
//	go test ./internal/dataset -run TestStreamVTGolden -update
func TestStreamVTGolden(t *testing.T) {
	const keepRows = 40
	cfg := goldenStreamConfig()
	root := rngx.New(cfg.Seed)
	var buf bytes.Buffer
	cw, err := NewCSVWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	err = streamVT(context.Background(), cfg, root, func(b *Board) error {
		return cw.WriteBoard(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) > keepRows+1 { // header + keepRows data rows
		lines = lines[:keepRows+1]
	}
	// The root generator's next draw pins the exact number and order of
	// Split/SplitSeed calls made during generation.
	lines = append(lines, fmt.Sprintf("next=%016x", root.Uint64()))
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "stream_v1.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to generate): %v", err)
	}
	if got != string(want) {
		gl := strings.Split(got, "\n")
		wl := strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("golden mismatch at line %d:\n got %q\nwant %q\n"+
					"if intentional, regenerate with: go test ./internal/dataset -run TestStreamVTGolden -update",
					i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("golden length mismatch: got %d lines, want %d", len(gl), len(wl))
	}
}
