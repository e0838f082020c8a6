package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// clockTicksPerSec is USER_HZ, the unit of the CPU times in /proc/<pid>/stat
// and /proc/stat. Linux fixes it at 100 on every architecture Go supports
// without cgo (sysconf(_SC_CLK_TCK) is not reachable from pure Go).
const clockTicksPerSec = 100

// procSample is one reading of a process's counters from /proc/<pid>.
type procSample struct {
	UserMS, SysMS float64 // CPU time of the whole thread group
	WriteBytes    int64   // bytes the process caused to be sent to the block layer
	HWMKiB        int64   // peak resident set size (VmHWM)
	NVCSW         int64   // voluntary context switches, summed over threads
	NIVCSW        int64   // involuntary context switches, summed over threads
}

// readProc samples /proc/<pid>/{stat,io,status}; pid "self" reads the
// benchmark's own process. Context switches are per thread in Linux, so
// they are summed over /proc/<pid>/task/*/status.
func readProc(pid string) (procSample, error) {
	var s procSample
	dir := filepath.Join("/proc", pid)
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return s, err
	}
	if s.UserMS, s.SysMS, err = parseProcStat(string(stat)); err != nil {
		return s, err
	}
	io, err := os.ReadFile(filepath.Join(dir, "io"))
	if err != nil {
		return s, err
	}
	if s.WriteBytes, err = parseKeyed(string(io), "write_bytes"); err != nil {
		return s, err
	}
	status, err := os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return s, err
	}
	if s.HWMKiB, err = parseKeyed(string(status), "VmHWM"); err != nil {
		return s, err
	}
	tasks, err := filepath.Glob(filepath.Join(dir, "task", "*", "status"))
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		v, err1 := parseKeyed(string(data), "voluntary_ctxt_switches")
		nv, err2 := parseKeyed(string(data), "nonvoluntary_ctxt_switches")
		if err1 != nil || err2 != nil {
			return s, fmt.Errorf("%s: %v %v", t, err1, err2)
		}
		s.NVCSW += v
		s.NIVCSW += nv
	}
	return s, nil
}

// parseProcStat extracts utime and stime (fields 14 and 15) from a
// /proc/<pid>/stat line, in milliseconds. The command name in field 2 is
// parenthesised and may itself contain spaces or parentheses, so fields
// are counted from the last ')'.
func parseProcStat(line string) (userMS, sysMS float64, err error) {
	end := strings.LastIndexByte(line, ')')
	if end < 0 {
		return 0, 0, fmt.Errorf("proc stat: no command field in %q", line)
	}
	fields := strings.Fields(line[end+1:])
	// fields[0] is field 3 (state); utime is field 14, stime field 15.
	if len(fields) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(fields))
	}
	ut, err := strconv.ParseInt(fields[11], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseInt(fields[12], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("proc stat stime: %w", err)
	}
	const msPerTick = 1000.0 / clockTicksPerSec
	return float64(ut) * msPerTick, float64(st) * msPerTick, nil
}

// parseKeyed returns the integer value of "key:" in a /proc key-value file
// such as io or status; a trailing unit ("kB") is ignored.
func parseKeyed(text, key string) (int64, error) {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != key {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			return 0, fmt.Errorf("proc: %s has no value", key)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc: no %s line", key)
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	Total, Steal int64
}

// readCPUTimes samples the host-wide CPU counters.
func readCPUTimes() (cpuTimes, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	return parseCPUTimes(string(data))
}

// parseCPUTimes reads the first line of /proc/stat: user nice system idle
// iowait irq softirq steal [guest guest_nice]. Guest time is already
// counted inside user and nice, so the total is the first eight fields.
func parseCPUTimes(text string) (cpuTimes, error) {
	line, _, _ := strings.Cut(text, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("proc stat: unexpected first line %q", line)
	}
	var c cpuTimes
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("proc stat field %d: %w", i, err)
		}
		c.Total += v
		if i == 8 {
			c.Steal = v
		}
	}
	return c, nil
}

// stealFrac is the share of all CPU time between two readings that the
// hypervisor gave to other guests.
func stealFrac(before, after cpuTimes) float64 {
	total := after.Total - before.Total
	if total <= 0 {
		return 0
	}
	return float64(after.Steal-before.Steal) / float64(total)
}
