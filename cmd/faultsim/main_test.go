package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"analogdft"
	"analogdft/internal/obs/cliobs"
)

// base returns the coarse-grid biquad configuration used across tests.
func base() config {
	return config{frac: 0.2, eps: 0.1, floor: 0.01, points: 31, loHz: 100, hiHz: 5600}
}

func TestRunInitialOnly(t *testing.T) {
	cfg := base()
	cfg.initial = true
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunMatrixWithCSV(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "matrix.csv")
	cfg := base()
	cfg.csvPath = csv
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1+7*8 {
		t.Fatalf("CSV lines = %d, want 57", len(lines))
	}
	if !strings.HasPrefix(lines[0], "config,") {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestRunFromDeck(t *testing.T) {
	cfg := base()
	cfg.path = "../../testdata/biquad.cir"
	cfg.points = 21
	cfg.initial = true
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunMissingDeck(t *testing.T) {
	cfg := config{path: "/no/such.cir", frac: 0.2, eps: 0.1, floor: 0.01, points: 21, initial: true}
	if err := run(cfg); err == nil {
		t.Fatal("missing deck accepted")
	}
}

func TestLoadBenchAutoChain(t *testing.T) {
	b, err := analogdft.LoadBench("../../testdata/biquad.cir")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Chain) != 3 {
		t.Fatalf("chain = %v", b.Chain)
	}
}

func TestRunMarkdown(t *testing.T) {
	cfg := base()
	cfg.markdown = true
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunStrictCleanDeck(t *testing.T) {
	// A healthy deck has no failed cells; -strict must not change the
	// exit status.
	cfg := base()
	cfg.strict = true
	cfg.sim.Stats = true
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllPolicies(t *testing.T) {
	for _, p := range []string{"", "degrade", "failfast", "retry"} {
		cfg := base()
		cfg.sim.OnError = p
		if err := run(cfg); err != nil {
			t.Fatalf("policy %q: %v", p, err)
		}
	}
}

func TestRunRejectsUnknownPolicy(t *testing.T) {
	cfg := base()
	cfg.sim.OnError = "bogus"
	if err := run(cfg); err == nil || !strings.Contains(err.Error(), "unknown error policy") {
		t.Fatalf("err = %v", err)
	}
}

// TestRunRejectsRetiredEngine: -engine is retired (one engine remains),
// so `faultsim -engine x` is an undefined flag and exits 2. The test
// binary re-runs itself with faultsim's command line after "--", where
// this test hands it to main.
func TestRunRejectsRetiredEngine(t *testing.T) {
	if flag.Arg(0) == "faultsim" {
		os.Args = flag.Args()
		main()
		return
	}
	out, err := exec.Command(os.Args[0], "-test.run=^TestRunRejectsRetiredEngine$", "--", "faultsim", "-engine", "x").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("faultsim -engine x: err = %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "flag provided but not defined: -engine") {
		t.Errorf("faultsim -engine x printed %q, want the undefined-flag message", out)
	}
}

// brokenMatrix hand-builds a matrix with two failed cells so the error
// listing can be checked without constructing a failing circuit.
func brokenMatrix() *analogdft.Matrix {
	bench := analogdft.PaperBiquad()
	faults := analogdft.DeviationFaults(bench.Circuit, 0.2)
	mx := &analogdft.Matrix{
		Faults: faults,
		Configs: []analogdft.Configuration{
			{Index: 0, N: 3}, {Index: 1, N: 3},
		},
		Det:   [][]bool{make([]bool, len(faults)), make([]bool, len(faults))},
		Omega: [][]float64{make([]float64, len(faults)), make([]float64, len(faults))},
	}
	mx.CellErrors = []analogdft.CellError{
		{Config: mx.Configs[0], FaultIndex: 1, Fault: faults[1], Err: errors.New("boom")},
		{Config: mx.Configs[1], FaultIndex: 3, Fault: faults[3], Err: errors.New("bang")},
	}
	return mx
}

func TestReportCellErrorsListing(t *testing.T) {
	mx := brokenMatrix()
	var sb strings.Builder
	if err := reportCellErrors(&sb, mx, false); err != nil {
		t.Fatalf("non-strict reporting errored: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "2 of 16 cells failed") {
		t.Fatalf("missing count line:\n%s", out)
	}
	for _, want := range []string{mx.CellErrors[0].Fault.ID, mx.CellErrors[1].Fault.ID, "boom", "bang"} {
		if !strings.Contains(out, want) {
			t.Fatalf("listing missing %q:\n%s", want, out)
		}
	}
}

func TestReportCellErrorsStrict(t *testing.T) {
	mx := brokenMatrix()
	var sb strings.Builder
	err := reportCellErrors(&sb, mx, true)
	if !errors.Is(err, errCellsFailed) {
		t.Fatalf("strict err = %v, want errCellsFailed", err)
	}
	// Clean matrix: strict mode is quiet and nil.
	mx.CellErrors = nil
	sb.Reset()
	if err := reportCellErrors(&sb, mx, true); err != nil || sb.Len() != 0 {
		t.Fatalf("clean strict: err=%v out=%q", err, sb.String())
	}
}

// TestStrictLintRejectsFloatingNodeDeck is the preflight acceptance test:
// a deck with a floating node fails up front with a structured NLxxx
// diagnostic under -strict-lint, instead of surfacing later as an opaque
// singular-matrix error from the MNA solver.
func TestStrictLintRejectsFloatingNodeDeck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "floating.cir")
	deck := "R1 in a 1k\nR2 a 0 1k\nR3 a x 1k\nOA1 0 a b\nR4 b a 1k\n.input in\n.output b\n"
	if err := os.WriteFile(path, []byte(deck), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := base()
	cfg.path = path
	cfg.lint.Strict = true
	err := run(cfg)
	if err == nil || !strings.Contains(err.Error(), "netlist preflight") {
		t.Fatalf("strict-lint run error = %v, want a netlist preflight failure", err)
	}

	// The diagnostic stream names the floating node with its stable code.
	bench, err := analogdft.LoadBench(path)
	if err != nil {
		t.Fatal(err)
	}
	var diag strings.Builder
	lintErr := (&cliobs.LintFlags{Strict: true}).Preflight("faultsim", bench, &diag)
	if lintErr == nil {
		t.Fatal("strict preflight accepted a floating-node deck")
	}
	if out := diag.String(); !strings.Contains(out, "NL002") || !strings.Contains(out, "x") {
		t.Errorf("preflight output missing NL002/node x:\n%s", out)
	}

	// Without -strict-lint the run warns but proceeds past the preflight;
	// the engine's degrade policy absorbs the singular cells.
	cfg.lint.Strict = false
	if err := run(cfg); err != nil && strings.Contains(err.Error(), "netlist preflight") {
		t.Fatalf("non-strict run still failed the preflight: %v", err)
	}
}
