package main

import (
	"strings"
	"testing"
)

const promSample = `# HELP jobs_cache_hits_total jobs answered from the cache
# TYPE jobs_cache_hits_total counter
jobs_cache_hits_total 12
jobs_finished_total{state="done"} 40
jobs_store_result_bytes_bucket{le="+Inf"} 7
jobs_store_result_bytes_sum 5120.5
dftserved_request_seconds{quantile="0.5"} NaN
`

func TestParsePromAndDeltas(t *testing.T) {
	before, err := parseProm(strings.NewReader(promSample))
	if err != nil {
		t.Fatal(err)
	}
	if before["jobs_cache_hits_total"] != 12 || before[`jobs_finished_total{state="done"}`] != 40 ||
		before["jobs_store_result_bytes_sum"] != 5120.5 || before[`jobs_store_result_bytes_bucket{le="+Inf"}`] != 7 {
		t.Fatalf("parsed %v", before)
	}
	after, err := parseProm(strings.NewReader("jobs_cache_hits_total 20\njobs_rejected_total 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	d := deltas(before, after)
	if d["jobs_cache_hits_total"] != 8 || d["jobs_rejected_total"] != 3 || len(d) != 2 {
		t.Errorf("deltas = %v, want hits 8, rejected 3 (new series count from zero)", d)
	}
	if _, err := parseProm(strings.NewReader("no_value_here\n")); err == nil {
		t.Error("a line without a value should fail")
	}
	if _, err := parseProm(strings.NewReader("x abc\n")); err == nil {
		t.Error("a non-numeric value should fail")
	}
}

func TestParseProcFiles(t *testing.T) {
	// The command name may hold spaces and parentheses.
	stat := "4242 (dft served) (x)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 75 0 0 20 0 9 0 100 0 0"
	cpu, err := parseCPUSeconds(stat)
	if err != nil {
		t.Fatal(err)
	}
	if cpu != 3.25 {
		t.Errorf("cpu = %v s, want (250+75)/100 = 3.25", cpu)
	}
	if _, err := parseCPUSeconds("4242 (short) S 1 2"); err == nil {
		t.Error("a truncated stat line should fail")
	}

	status := "Name:\tdftserved\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40960 kB\n"
	hwm, err := parseStatusKB(status, "VmHWM")
	if err != nil || hwm != 51200 {
		t.Errorf("VmHWM = %v, %v; want 51200", hwm, err)
	}
	rss, err := parseStatusKB(status, "VmRSS")
	if err != nil || rss != 40960 {
		t.Errorf("VmRSS = %v, %v; want 40960", rss, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("a missing field should fail")
	}

	self, err := readProc("self")
	if err != nil {
		t.Fatal(err)
	}
	if self.hwmKB <= 0 || self.rssKB <= 0 || self.hwmKB < self.rssKB {
		t.Errorf("readProc(self) = %+v: want 0 < VmRSS ≤ VmHWM", self)
	}
}
