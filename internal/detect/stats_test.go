package detect

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"analogdft/internal/analysis"
	"analogdft/internal/dft"
	"analogdft/internal/fault"
	"analogdft/internal/obs"
)

func TestStatsStringFormat(t *testing.T) {
	cases := []struct {
		st   Stats
		want string
	}{
		{
			Stats{},
			"0/0 cells, 0 solves, 0 singular, 0 retries (0 recovered), 0 errors, 0s",
		},
		{
			Stats{Cells: 56, CellsDone: 56, Solves: 13496, SingularPoints: 3,
				Retries: 9, Recovered: 2, Errors: 1, Elapsed: 1500 * time.Millisecond},
			"56/56 cells, 13496 solves, 3 singular, 9 retries (2 recovered), 1 errors, 1.5s",
		},
		{
			// Intermediate Progress snapshot: zero Elapsed renders as 0s.
			Stats{Cells: 10, CellsDone: 4, Solves: 900},
			"4/10 cells, 900 solves, 0 singular, 0 retries (0 recovered), 0 errors, 0s",
		},
	}
	for _, c := range cases {
		if got := c.st.String(); got != c.want {
			t.Fatalf("Stats%+v.String()\n got %q\nwant %q", c.st, got, c.want)
		}
	}
}

func TestStatsStringIsProgressSuffix(t *testing.T) {
	// The progress reporter prints "simulated N/M cells: <stats>"; the
	// stringer must stay a single line with no leading/trailing space.
	s := Stats{Cells: 8, CellsDone: 8, Solves: 100, Elapsed: time.Second}.String()
	if strings.ContainsAny(s, "\n\r") || strings.TrimSpace(s) != s {
		t.Fatalf("Stats.String not a clean single line: %q", s)
	}
}

// snapshotAfterRun resets the default registry, builds the matrix with the
// given worker count (timing off), and returns the full registry snapshot.
func snapshotAfterRun(t *testing.T, workers int) map[string]obs.MetricSnap {
	t.Helper()
	ckt := cascade3()
	m, err := dft.ApplyAll(ckt)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.DeviationUniverse(ckt, 0.2)
	opts := fastOpts()
	opts.Region = analysis.Region{LoHz: 10, HiHz: 1e5}
	opts.Workers = workers
	obs.Reg().Reset()
	if _, err := BuildMatrix(m, faults, opts); err != nil {
		t.Fatal(err)
	}
	return obs.Reg().Snapshot()
}

// TestMetricSnapshotDeterministicAcrossWorkers is the ISSUE 2 determinism
// gate: with timing off, the complete registry snapshot after a matrix
// build must be byte-identical for any worker count and scheduling order
// (runs under -race in CI). Timing-gated metrics (chunk latencies, worker
// utilization) are the only schedule-dependent instruments, and they must
// stay silent here.
func TestMetricSnapshotDeterministicAcrossWorkers(t *testing.T) {
	if obs.TimingOn() {
		t.Fatal("timing unexpectedly enabled; determinism holds only with timing off")
	}
	// The single remaining engine is the incremental one; the subtest keeps
	// its name so the gate reads the same in test output as before.
	t.Run("incremental", func(t *testing.T) {
		base := snapshotAfterRun(t, 1)
		if base["detect_cells_total"].Value == 0 || base["mna_solves_total"].Value == 0 {
			t.Fatalf("instrumentation silent: %+v", base)
		}
		if base["detect_chunk_seconds"].Count != 0 || base["detect_workers"].Value != 0 {
			t.Fatalf("timing-gated metrics fired with timing off: %+v", base)
		}
		if base["engine_lowrank_solve_total"].Value == 0 || base["detect_rank1_cells_total"].Value == 0 {
			t.Fatalf("the row walk performed no Sherman–Morrison solves: %+v", base)
		}
		for _, workers := range []int{2, 3, 8} {
			got := snapshotAfterRun(t, workers)
			if !reflect.DeepEqual(base, got) {
				for name := range base {
					if !reflect.DeepEqual(base[name], got[name]) {
						t.Errorf("metric %q: workers=1 %+v, workers=%d %+v", name, base[name], workers, got[name])
					}
				}
				t.Fatalf("snapshot differs at workers=%d", workers)
			}
		}
	})
}

// TestTimingMetricsFireWhenEnabled checks the other side of the gate: with
// timing on, the schedule-dependent instruments do observe.
func TestTimingMetricsFireWhenEnabled(t *testing.T) {
	rt := obs.Default()
	rt.SetTiming(true)
	defer rt.SetTiming(false)
	snap := snapshotAfterRun(t, 2)
	if snap["detect_chunk_seconds"].Count == 0 {
		t.Fatalf("chunk latency histogram silent with timing on: %+v", snap["detect_chunk_seconds"])
	}
	if snap["detect_workers"].Value != 2 {
		t.Fatalf("detect_workers = %v, want 2", snap["detect_workers"].Value)
	}
	if snap["mna_solve_seconds"].Count == 0 {
		t.Fatal("solve latency histogram silent with timing on")
	}
}
