package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// parseProm reads a Prometheus text exposition into series → value.
// Comment lines are skipped; a series keeps its label set verbatim, so
// `jobs_finished_total{state="done"}` is its own key.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return out, nil
}

// deltas returns after − before for every series in after; a series
// missing from before counts from zero.
func deltas(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// Linux fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// parseCPUSeconds extracts utime+stime, in seconds, from the contents of
// /proc/<pid>/stat. The command name is parenthesized and may itself
// contain spaces or parentheses, so fields are counted from the last ')'.
func parseCPUSeconds(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want ≥13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return float64(utime+stime) / clockTicks, nil
}

// parseStatusKB extracts a "Key:  N kB" field (VmHWM, VmRSS) from the
// contents of /proc/<pid>/status.
func parseStatusKB(status, key string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok || name != key {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status %s: malformed %q", key, line)
		}
		return strconv.ParseFloat(f[0], 64)
	}
	return 0, fmt.Errorf("proc status: no %s field", key)
}

// procSample is one reading of a process's CPU time and memory.
type procSample struct {
	cpuS  float64 // user + system CPU seconds
	rssKB float64 // resident set now
	hwmKB float64 // resident set high-water mark
}

// readProc samples /proc/<pid> ("self" for this process).
func readProc(pid string) (procSample, error) {
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return procSample{}, err
	}
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return procSample{}, err
	}
	var s procSample
	if s.cpuS, err = parseCPUSeconds(string(stat)); err != nil {
		return s, err
	}
	if s.rssKB, err = parseStatusKB(string(status), "VmRSS"); err != nil {
		return s, err
	}
	if s.hwmKB, err = parseStatusKB(string(status), "VmHWM"); err != nil {
		return s, err
	}
	return s, nil
}
