package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"analogdft/internal/obs/benchfmt"
)

// writeSnapshot parses benchmark text and writes it as a BENCH_*.json
// snapshot under dir.
func writeSnapshot(t *testing.T, dir, name, text string) {
	t.Helper()
	f, err := benchfmt.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDirWithTooFewSnapshotsExitsZero(t *testing.T) {
	for _, snapshots := range []int{0, 1} {
		dir := t.TempDir()
		if snapshots == 1 {
			writeSnapshot(t, dir, "BENCH_2026-08-08.json", "BenchmarkOnly-8 100 100 ns/op\n")
		}
		var out bytes.Buffer
		code, err := run(dir, nil, benchfmt.Thresholds{}, false, "all", &out)
		if err != nil {
			t.Fatalf("%d snapshot(s): unexpected error %v", snapshots, err)
		}
		if code != 0 {
			t.Fatalf("%d snapshot(s): exit %d, want 0", snapshots, code)
		}
		if !strings.Contains(out.String(), "fewer than two BENCH_*.json snapshots") {
			t.Errorf("%d snapshot(s): missing explanatory note, got %q", snapshots, out.String())
		}
	}
}

// TestDirOrdersTimestampedSnapshots pins the snapshot naming `make bench`
// relies on: a snapshot stamped with its UTC time, BENCH_<date>T<hhmmss>Z,
// sorts after a bare-date one of the same day ('T' sorts after '.') and
// before any later day's, so two snapshots taken on one day both stay in
// the trajectory in the order they were taken.
func TestDirOrdersTimestampedSnapshots(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_2026-10-20.json", "BENCH_2026-10-19T171000Z.json",
		"BENCH_2026-10-19.json", "BENCH_2026-10-19T093000Z.json", "BENCH_2026-10-18.json"} {
		writeSnapshot(t, dir, name, "BenchmarkX-8 100 100 ns/op\n")
	}
	for _, c := range []struct{ drop, old, new string }{
		{"", "BENCH_2026-10-19T171000Z.json", "BENCH_2026-10-20.json"},
		{"BENCH_2026-10-20.json", "BENCH_2026-10-19T093000Z.json", "BENCH_2026-10-19T171000Z.json"},
		{"BENCH_2026-10-19T171000Z.json", "BENCH_2026-10-19.json", "BENCH_2026-10-19T093000Z.json"},
	} {
		if c.drop != "" {
			if err := os.Remove(filepath.Join(dir, c.drop)); err != nil {
				t.Fatal(err)
			}
		}
		old, new, err := resolvePair(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(old) != c.old || filepath.Base(new) != c.new {
			t.Errorf("after dropping %q: pair (%s, %s), want (%s, %s)", c.drop, filepath.Base(old), filepath.Base(new), c.old, c.new)
		}
	}
}

func TestDirComparesFreshestPair(t *testing.T) {
	dir := t.TempDir()
	// Three snapshots: the diff must pick the last two, so the regression
	// planted between day 1 and day 2 is invisible while day 2 → day 3 is
	// flat.
	writeSnapshot(t, dir, "BENCH_2026-08-06.json", "BenchmarkX-8 100 100 ns/op\n")
	writeSnapshot(t, dir, "BENCH_2026-08-07.json", "BenchmarkX-8 100 500 ns/op\n")
	writeSnapshot(t, dir, "BENCH_2026-08-08.json", "BenchmarkX-8 100 505 ns/op\n")
	var out bytes.Buffer
	code, err := run(dir, nil, benchfmt.Thresholds{}, false, "all", &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "no regressions") {
		t.Errorf("unexpected verdict: %q", out.String())
	}
}

func TestAllocsGate(t *testing.T) {
	dir := t.TempDir()
	// ns/op regresses 5x but allocs/op is flat: the allocs gate passes
	// while the full gate fails.
	writeSnapshot(t, dir, "BENCH_2026-08-07.json", "BenchmarkX-8 100 100 ns/op 1000 B/op 10 allocs/op\n")
	writeSnapshot(t, dir, "BENCH_2026-08-08.json", "BenchmarkX-8 100 500 ns/op 1000 B/op 10 allocs/op\n")

	var out bytes.Buffer
	code, err := run(dir, nil, benchfmt.Thresholds{}, false, "all", &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Fatalf("gate=all exit %d, want 2", code)
	}
	out.Reset()
	code, err = run(dir, nil, benchfmt.Thresholds{}, false, "allocs", &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("gate=allocs exit %d, want 0 (ns-only regression)\n%s", code, out.String())
	}

	// Now regress the allocation count: both gates fail.
	writeSnapshot(t, dir, "BENCH_2026-08-09.json", "BenchmarkX-8 100 500 ns/op 1000 B/op 20 allocs/op\n")
	out.Reset()
	code, err = run(dir, nil, benchfmt.Thresholds{}, false, "allocs", &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Fatalf("gate=allocs exit %d, want 2 after alloc regression\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "enforcing allocs gate") {
		t.Errorf("missing allocs-gate verdict: %q", out.String())
	}

	out.Reset()
	code, err = run(dir, nil, benchfmt.Thresholds{}, false, "none", &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("gate=none exit %d, want 0", code)
	}
}

func TestDimGateWithinOneSnapshot(t *testing.T) {
	dir := t.TempDir()
	// Two snapshots: the -dim comparison must use only the freshest one.
	// In the older file sparse regresses allocs; in the newer it wins.
	writeSnapshot(t, dir, "BENCH_2026-08-07.json",
		"BenchmarkBuild/layout=dense-8 10 1000 ns/op 2000 B/op 100 allocs/op\n"+
			"BenchmarkBuild/layout=sparse-8 10 900 ns/op 2000 B/op 200 allocs/op\n")
	writeSnapshot(t, dir, "BENCH_2026-08-08.json",
		"BenchmarkBuild/layout=dense-8 10 1000 ns/op 2000 B/op 100 allocs/op\n"+
			"BenchmarkBuild/layout=sparse-8 10 800 ns/op 2000 B/op 90 allocs/op\n")
	var out bytes.Buffer
	code, err := runDim("layout=dense:sparse", dir, nil, benchfmt.Thresholds{}, false, "allocs", &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit %d, want 0 (freshest snapshot has no sparse regression)\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "layout=dense:sparse") {
		t.Errorf("report does not show the paired dimension: %q", out.String())
	}

	// Regress sparse in a newer snapshot: the dim gate must now fail.
	writeSnapshot(t, dir, "BENCH_2026-08-09.json",
		"BenchmarkBuild/layout=dense-8 10 1000 ns/op 2000 B/op 100 allocs/op\n"+
			"BenchmarkBuild/layout=sparse-8 10 800 ns/op 2000 B/op 150 allocs/op\n")
	out.Reset()
	code, err = runDim("layout=dense:sparse", dir, nil, benchfmt.Thresholds{}, false, "allocs", &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Fatalf("exit %d, want 2 after sparse alloc regression\n%s", code, out.String())
	}
}

func TestDimEmptyDirExitsZero(t *testing.T) {
	var out bytes.Buffer
	code, err := runDim("layout=dense:sparse", t.TempDir(), nil, benchfmt.Thresholds{}, false, "allocs", &out)
	if err != nil || code != 0 {
		t.Fatalf("empty dir: code=%d err=%v", code, err)
	}
}

func TestDimBadSpecErrors(t *testing.T) {
	for _, spec := range []string{"layout", "layout=dense", "=dense:sparse", "layout=:sparse", "layout=dense:"} {
		if _, err := runDim(spec, t.TempDir(), nil, benchfmt.Thresholds{}, false, "all", new(bytes.Buffer)); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestUnknownGateErrors(t *testing.T) {
	if _, err := run(t.TempDir(), nil, benchfmt.Thresholds{}, false, "sometimes", new(bytes.Buffer)); err == nil {
		t.Fatal("unknown gate accepted")
	}
}

func TestDirAndPositionalAreExclusive(t *testing.T) {
	if _, err := run(t.TempDir(), []string{"a.json", "b.json"}, benchfmt.Thresholds{}, false, "all", new(bytes.Buffer)); err == nil {
		t.Fatal("-dir with positional files accepted")
	}
}
