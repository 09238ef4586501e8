package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudgePairsRule(t *testing.T) {
	lower := bound{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := bound{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}
	for _, c := range []struct {
		name string
		a, b []float64
		bd   bound
		want string
	}{
		{"ten wins beyond the IQR", parent, faster, lower, improved},
		{"higher is better", faster, parent, higher, improved},
		{"worse beyond the bound", parent, []float64{115, 116, 114, 115, 117, 113, 115, 116, 114, 115}, lower, regressed},
		{"same code", parent, parent, lower, unchanged},
		{"too few pairs for a claim", parent[:5], faster[:5], lower, unchanged},
		{"eight of ten wins", parent, []float64{90, 91, 89, 90, 92, 88, 90, 91, 110, 110}, lower, unchanged},
		{"parent spread wider than the bound", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100},
			[]float64{99, 99, 99, 99, 99, 99, 99, 99, 99, 99}, lower, unresolved},
	} {
		if got := judge(c.a, c.b, c.bd); got.outcome != c.want {
			t.Errorf("%s: %s (%+v), want %s", c.name, got.outcome, got, c.want)
		}
	}
}

func TestSetupFloor(t *testing.T) {
	setup := bound{Name: "setup_s", Better: "lower", Bound: 0.25}
	parent := []float64{0.12, 0.12, 0.12, 0.12}
	for _, c := range []struct {
		change float64
		want   string
	}{
		{0.30, unchanged}, // +150%, but only 0.18 s
		{0.40, regressed}, // 0.28 s worse, past the 0.25 s floor
	} {
		b := []float64{c.change, c.change, c.change, c.change}
		if got := judge(parent, b, setup); got.outcome != c.want {
			t.Errorf("setup 0.12 s → %v s: %s, want %s", c.change, got.outcome, c.want)
		}
	}
	if got := (bound{Name: "setup_s", Bound: 0.25}).allowed(4); got != 0.25 {
		t.Errorf("a 4 s set-up may worsen by %v, want the relative 0.25", got)
	}
}

func TestCompareAsMeasured(t *testing.T) {
	mk := func(scaled, raw float64) record {
		return record{
			Workload: "paper-flow",
			result:   result{Metrics: map[string]metricValue{"ops_per_s": {Value: scaled, Unit: "1/s"}}},
			Raw:      map[string]metricValue{"ops_per_s": {Value: raw, Unit: "1/s"}},
		}
	}
	var a, b []record
	for i := 0; i < 10; i++ {
		a = append(a, mk(100, 80))
		b = append(b, mk(100, 60)) // same at reference speed, 25% slower as measured
	}
	bounds := []bound{{Name: "ops_per_s", Better: "higher", Bound: 0.1}}
	var out bytes.Buffer
	if compareRecords(&out, bounds, a, b) {
		t.Errorf("scaled values regressed:\n%s", out.String())
	}
	if !compareRecords(&out, bounds, asMeasured(a), asMeasured(b)) {
		t.Errorf("values as measured did not regress:\n%s", out.String())
	}
}

func TestCompareRecordsOneRowPerWorkloadMetric(t *testing.T) {
	mk := func(workload string, v float64) record {
		return record{Workload: workload, result: result{Metrics: map[string]metricValue{"ops_per_s": {Value: v, Unit: "1/s"}}}}
	}
	var a, b []record
	for i := 0; i < 10; i++ {
		a = append(a, mk("paper-flow", 100), mk("serve-hot", 100))
		b = append(b, mk("paper-flow", 70), mk("serve-hot", 100))
	}
	var out bytes.Buffer
	bounds := []bound{{Name: "ops_per_s", Better: "higher", Bound: 0.1}}
	if !compareRecords(&out, bounds, a, b) {
		t.Errorf("a 30%% throughput loss did not regress:\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || !strings.Contains(lines[1], "paper-flow") || !strings.HasSuffix(lines[1], regressed) ||
		!strings.HasSuffix(lines[2], unchanged) {
		t.Errorf("table:\n%s", out.String())
	}
}
