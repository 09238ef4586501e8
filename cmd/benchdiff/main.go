// Command benchdiff compares two BENCH_<date>.json perf-trajectory files
// and reports per-benchmark ns/op, B/op and allocs/op deltas against
// regression thresholds:
//
//	benchdiff BENCH_2026-08-05.json BENCH_2026-08-08.json
//	benchdiff -dir .          # freshest two BENCH_*.json in a directory
//
// With -dim the comparison turns cross-sectional: a single snapshot (one
// positional file, or the freshest one in -dir) is diffed against itself
// along a sub-benchmark dimension, pairing names that differ only in the
// given key=value path segment:
//
//	benchdiff -dir . -dim impl=dense-ref:csr -gate allocs
//
// which asserts, within one run on one machine, that every CSR benchmark
// still beats (or at least does not regress against) its dense reference
// twin — the base variant is the "old" side, the alternative the "new".
//
// The ns/op threshold is noise-aware: a benchmark whose old samples
// spread wider than -ns-pct uses that spread as its effective threshold.
// -gate selects what fails the run: "all" (any regression), "allocs"
// (allocs/op only — deterministic, so CI enforces it while ns/op stays
// advisory), or "none" (report only). In -dir mode a directory with
// fewer snapshots than the comparison needs is not an error: the
// trajectory simply has no pair to compare yet, so benchdiff says so and
// exits 0.
// Exit status: 0 no gated regressions, 1 usage or I/O error, 2 gated
// regressions found.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"analogdft/internal/obs/benchfmt"
)

func main() {
	dir := flag.String("dir", "", "compare the freshest two BENCH_*.json files in this directory")
	nsPct := flag.Float64("ns-pct", benchfmt.DefaultThresholds.NsPct, "ns/op regression threshold, percent")
	memPct := flag.Float64("mem-pct", benchfmt.DefaultThresholds.MemPct, "B/op and allocs/op regression threshold, percent")
	asJSON := flag.Bool("json", false, "emit the report as JSON instead of text")
	gate := flag.String("gate", "all", "which regressions fail the run: all, allocs or none")
	dim := flag.String("dim", "", "cross-sectional diff within one snapshot: key=base:alt (e.g. impl=dense-ref:csr)")
	flag.Parse()

	code, err := runDim(*dim, *dir, flag.Args(), benchfmt.Thresholds{NsPct: *nsPct, MemPct: *memPct}, *asJSON, *gate, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// runDim dispatches on -dim: empty runs the temporal two-snapshot diff,
// anything else the cross-sectional single-snapshot one.
func runDim(dim, dir string, args []string, th benchfmt.Thresholds, asJSON bool, gate string, stdout io.Writer) (int, error) {
	if dim == "" {
		return run(dir, args, th, asJSON, gate, stdout)
	}
	if err := checkGate(gate); err != nil {
		return 1, err
	}
	key, spec, ok := strings.Cut(dim, "=")
	base, alt, ok2 := strings.Cut(spec, ":")
	if !ok || !ok2 || key == "" || base == "" || alt == "" {
		return 1, fmt.Errorf("bad -dim %q (want key=base:alt, e.g. impl=dense-ref:csr)", dim)
	}
	path, err := resolveOne(dir, args)
	if err != nil {
		return 1, err
	}
	if path == "" {
		fmt.Fprintf(stdout, "benchdiff: no BENCH_*.json snapshot in %s; nothing to compare yet\n", dir)
		return 0, nil
	}
	f, err := benchfmt.ReadFile(path)
	if err != nil {
		return 1, err
	}
	rep, err := benchfmt.DiffDim(f, key, base, alt, th)
	if err != nil {
		return 1, err
	}
	return report(rep, asJSON, gate, stdout)
}

func run(dir string, args []string, th benchfmt.Thresholds, asJSON bool, gate string, stdout io.Writer) (int, error) {
	if err := checkGate(gate); err != nil {
		return 1, err
	}
	oldPath, newPath, err := resolvePair(dir, args)
	if err != nil {
		return 1, err
	}
	if oldPath == "" {
		// -dir with fewer than two snapshots: nothing to diff yet. This is
		// the normal state of a fresh checkout or a first bench run, not a
		// failure — CI must not go red before a trajectory exists.
		fmt.Fprintf(stdout, "benchdiff: fewer than two BENCH_*.json snapshots in %s; nothing to compare yet\n", dir)
		return 0, nil
	}
	oldF, err := benchfmt.ReadFile(oldPath)
	if err != nil {
		return 1, err
	}
	newF, err := benchfmt.ReadFile(newPath)
	if err != nil {
		return 1, err
	}
	rep := benchfmt.Diff(oldF, newF, th)
	if rep.OldLabel == "" {
		rep.OldLabel = filepath.Base(oldPath)
	}
	if rep.NewLabel == "" {
		rep.NewLabel = filepath.Base(newPath)
	}
	return report(rep, asJSON, gate, stdout)
}

// checkGate validates the -gate value.
func checkGate(gate string) error {
	switch gate {
	case "all", "allocs", "none":
		return nil
	default:
		return fmt.Errorf("unknown -gate %q (want all, allocs or none)", gate)
	}
}

// report renders the comparison and applies the gate.
func report(rep *benchfmt.Report, asJSON bool, gate string, stdout io.Writer) (int, error) {
	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return 1, err
		}
	} else if err := rep.WriteText(stdout); err != nil {
		return 1, err
	}
	switch gate {
	case "all":
		if len(rep.Regressions()) > 0 {
			return 2, nil
		}
	case "allocs":
		if reg := rep.AllocRegressions(); len(reg) > 0 {
			fmt.Fprintf(stdout, "enforcing allocs gate: %d allocation regression(s)\n", len(reg))
			return 2, nil
		}
	}
	return 0, nil
}

// resolvePair turns the CLI inputs into (old, new) paths: either the two
// positional files as given, or the freshest two BENCH_*.json in -dir
// (the date-stamped filenames sort chronologically). In -dir mode, fewer
// than two snapshots returns empty paths and no error — the caller
// reports the empty trajectory and exits cleanly.
func resolvePair(dir string, args []string) (string, string, error) {
	if dir != "" {
		if len(args) != 0 {
			return "", "", fmt.Errorf("-dir and positional files are mutually exclusive")
		}
		matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
		if err != nil {
			return "", "", err
		}
		if len(matches) < 2 {
			return "", "", nil
		}
		sort.Strings(matches)
		return matches[len(matches)-2], matches[len(matches)-1], nil
	}
	if len(args) != 2 {
		return "", "", fmt.Errorf("usage: benchdiff OLD.json NEW.json  (or -dir DIR)")
	}
	return args[0], args[1], nil
}

// resolveOne picks the single snapshot a -dim comparison runs over: the
// one positional file, or the freshest BENCH_*.json in -dir. As with
// resolvePair, an empty -dir is reported as "nothing yet", not an error.
func resolveOne(dir string, args []string) (string, error) {
	if dir != "" {
		if len(args) != 0 {
			return "", fmt.Errorf("-dir and positional files are mutually exclusive")
		}
		matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
		if err != nil {
			return "", err
		}
		if len(matches) == 0 {
			return "", nil
		}
		sort.Strings(matches)
		return matches[len(matches)-1], nil
	}
	if len(args) != 1 {
		return "", fmt.Errorf("usage: benchdiff -dim key=base:alt FILE.json  (or -dir DIR)")
	}
	return args[0], nil
}
