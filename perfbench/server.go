package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// readyLine is the line `ropuf serve` prints once it is listening; the
// device count is what recovery loaded.
var readyLine = regexp.MustCompile(`authserve listening on http://(\S+) \((\d+) devices`)

// serverOptions are the serve flags the benchmark varies.
type serverOptions struct {
	Bin      string // ropuf binary
	DataDir  string
	Seed     uint64
	TraceOut string // -trace-out file; "" = tracing off
}

// server is one running `ropuf serve` process.
type server struct {
	cmd     *exec.Cmd
	Pid     string
	Addr    string // base URL
	Devices int    // device count of the ready line
	Ready   time.Duration

	done     chan struct{} // closed once stderr is drained
	mu       sync.Mutex
	stderr   []string
	waitOnce sync.Once
	waitErr  error
}

// startServer launches `ropuf serve` with fsync always, 16 shards and the
// default 4 MiB compaction threshold, and waits for its ready line. Ready
// is the time from launch to that line.
func startServer(ctx context.Context, o serverOptions) (*server, error) {
	args := []string{"serve", "-addr", "127.0.0.1:0", "-data", o.DataDir,
		"-fsync", "always", "-shards", "16", "-seed", strconv.FormatUint(o.Seed, 10)}
	if o.TraceOut != "" {
		args = append(args, "-trace-out", o.TraceOut)
	}
	cmd := exec.Command(o.Bin, args...)
	// A benchmark killed from outside must not leave its server running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	ready := make(chan []string, 1)
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", o.Bin, err)
	}
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.stderr = append(s.stderr, line)
			s.mu.Unlock()
			if m := readyLine.FindStringSubmatch(line); m != nil {
				select {
				case ready <- m:
				default:
				}
			}
		}
	}()
	s.Pid = strconv.Itoa(cmd.Process.Pid)
	timeout := time.NewTimer(90 * time.Second)
	defer timeout.Stop()
	select {
	case m := <-ready:
		s.Ready = time.Since(t0)
		s.Addr = "http://" + m[1]
		s.Devices, _ = strconv.Atoi(m[2])
		return s, nil
	case <-s.done:
		err = errors.New("server exited before it was ready")
	case <-timeout.C:
		err = errors.New("server not ready after 90s")
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.kill()
	return nil, fmt.Errorf("%w; stderr: %s", err, s.log())
}

// wait reaps the process once; later calls return the first result.
func (s *server) wait() error {
	s.waitOnce.Do(func() {
		<-s.done // stderr must be read to EOF before Wait closes the pipe
		s.waitErr = s.cmd.Wait()
	})
	return s.waitErr
}

// kill ends the process with SIGKILL, as a crash would, and reaps it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	_ = s.wait()
}

// drain sends SIGINT and returns the time until the process exited. The
// drain folds every shard WAL into its snapshot before exit; it must end
// with status 0 and the "drained cleanly" line.
func (s *server) drain() (time.Duration, error) {
	t0 := time.Now()
	if err := s.cmd.Process.Signal(syscall.SIGINT); err != nil {
		return 0, err
	}
	err := s.wait()
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("drain: %w; stderr: %s", err, s.log())
	}
	if !strings.Contains(s.log(), "authserve drained cleanly") {
		return d, fmt.Errorf("drain: no clean-drain line; stderr: %s", s.log())
	}
	return d, nil
}

func (s *server) log() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.stderr, " | ")
}

// metrics scrapes and parses the server's /metrics.
func (s *server) metrics(ctx context.Context, c *http.Client) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.Addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseScrape(string(body))
}

// readyCycles launches the server over dir n times, SIGKILLing all but the
// last, and returns the last (still running) server with every ready time.
// Each launch must report want devices. The directory's byte size must not
// change: a restart writes nothing.
func readyCycles(ctx context.Context, o serverOptions, n, want int) (*server, []time.Duration, error) {
	size0, err := dirBytes(o.DataDir)
	if err != nil {
		return nil, nil, err
	}
	var readies []time.Duration
	for i := 0; i < n; i++ {
		s, err := startServer(ctx, o)
		if err != nil {
			return nil, nil, err
		}
		if s.Devices != want {
			s.kill()
			return nil, nil, fmt.Errorf("restart %d recovered %d devices, want %d", i, s.Devices, want)
		}
		readies = append(readies, s.Ready)
		if i == n-1 {
			if size, err := dirBytes(o.DataDir); err != nil || size != size0 {
				s.kill()
				return nil, nil, fmt.Errorf("restart changed the data dir: %d -> %d bytes (%v)", size0, size, err)
			}
			return s, readies, nil
		}
		s.kill()
	}
	return nil, nil, errors.New("no ready cycles")
}

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
