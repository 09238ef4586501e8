package main

import (
	"errors"
	"io"
	"strings"
	"testing"

	"analogdft"
)

// base returns the coarse-grid biquad configuration used across tests.
func base() config {
	return config{frac: 0.2, eps: 0.1, floor: 0.01, points: 31, loHz: 100, hiHz: 5600, cost: "configs", wCfg: 1, wOp: 1}
}

func TestLoadBenchDefault(t *testing.T) {
	b, err := analogdft.LoadBench("")
	if err != nil {
		t.Fatal(err)
	}
	if b.Circuit.Name != "paper-biquad" || len(b.Chain) != 3 {
		t.Fatalf("default bench = %v chain %v", b.Circuit.Name, b.Chain)
	}
}

func TestLoadBenchFromDeck(t *testing.T) {
	b, err := analogdft.LoadBench("../../testdata/biquad.cir")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Chain) != 3 || b.Chain[0] != "OA1" {
		t.Fatalf("chain = %v", b.Chain)
	}
	if err := b.Circuit.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadBenchMissingFile(t *testing.T) {
	if _, err := analogdft.LoadBench("/nonexistent/deck.cir"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunRejectsUnknownCost(t *testing.T) {
	cfg := base()
	cfg.cost = "bogus"
	err := run(cfg, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown cost") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunCostVariants(t *testing.T) {
	// Exercise all three cost paths end to end on a coarse grid (stdout
	// noise is acceptable in tests).
	for _, cost := range []string{"configs", "opamps", "weighted"} {
		cfg := base()
		cfg.cost = cost
		if err := run(cfg, io.Discard); err != nil {
			t.Fatalf("cost %s: %v", cost, err)
		}
	}
}

func TestRunBipolar(t *testing.T) {
	cfg := base()
	cfg.bipolar = true
	if err := run(cfg, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunSimStats(t *testing.T) {
	cfg := base()
	cfg.sim.Stats = true
	cfg.sim.Workers = 2
	var out strings.Builder
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	// The biquad's chosen opamps {OP1, OP2} are a prefix of the chain, so
	// the partial rows are copies of full rows, not simulated.
	if !strings.Contains(out.String(), "partial matrix:   4 rows reused from the full matrix, 0 solves") {
		t.Fatalf("stats do not report the reused partial rows:\n%s", out.String())
	}
	if strings.Contains(out.String(), "0/0 cells") {
		t.Fatalf("stats print an empty simulation:\n%s", out.String())
	}
}

func TestRunReportsFaultSize(t *testing.T) {
	cfg := base()
	cfg.frac = 0.3
	var out strings.Builder
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(+30% deviations)") {
		t.Fatalf("header does not print the 30%% fault size:\n%s", out.String()[:400])
	}
	cfg.bipolar = true
	out.Reset()
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "16 soft faults (±30% deviations)") {
		t.Fatalf("bipolar header wrong:\n%s", out.String()[:400])
	}
}

func TestWarnCellErrors(t *testing.T) {
	bench := analogdft.PaperBiquad()
	faults := analogdft.DeviationFaults(bench.Circuit, 0.2)
	mx := &analogdft.Matrix{
		Faults:  faults,
		Configs: []analogdft.Configuration{{Index: 0, N: 3}},
		Det:     [][]bool{make([]bool, len(faults))},
		Omega:   [][]float64{make([]float64, len(faults))},
	}
	var sb strings.Builder
	warnCellErrors(&sb, "full matrix", mx)
	if sb.Len() != 0 {
		t.Fatalf("clean matrix warned: %q", sb.String())
	}
	mx.CellErrors = []analogdft.CellError{
		{Config: mx.Configs[0], FaultIndex: 2, Fault: faults[2], Err: errors.New("boom")},
	}
	warnCellErrors(&sb, "full matrix", mx)
	out := sb.String()
	if !strings.Contains(out, "1 failed cells") || !strings.Contains(out, faults[2].ID) || !strings.Contains(out, "boom") {
		t.Fatalf("warning missing detail:\n%s", out)
	}
}
