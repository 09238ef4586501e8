package analogdft

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"analogdft/internal/obs"
)

// quickSession builds a session over the paper biquad with a coarse sweep.
func quickSession(t *testing.T) *Session {
	t.Helper()
	bench := PaperBiquad()
	return NewSession(bench, DeviationFaults(bench.Circuit, 0.20), Options{Points: 31})
}

func TestSessionEvaluateMatchesDirectCall(t *testing.T) {
	s := quickSession(t)
	row, err := s.Evaluate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := EvaluateCircuit(s.Bench.Circuit, s.Faults, s.Options)
	if err != nil {
		t.Fatal(err)
	}
	if row.FaultCoverage() != direct.FaultCoverage() {
		t.Errorf("session FC %g != direct FC %g", row.FaultCoverage(), direct.FaultCoverage())
	}
}

// TestSessionMatrixCachedAcrossOptimize: the matrix is simulated once; the
// second Matrix call and the following Optimize reuse it (zero new engine
// solves).
func TestSessionMatrixCachedAcrossOptimize(t *testing.T) {
	s := quickSession(t)
	mx, err := s.Matrix(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	solves0 := obs.Reg().Snapshot()["detect_solves_total"].Value

	again, err := s.Matrix(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if again != mx {
		t.Error("second Matrix call rebuilt the matrix")
	}
	res, err := s.Optimize(context.Background(), ConfigCountCost)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.Best.Coverage != 1 {
		t.Errorf("optimize over cached matrix: %+v", res.Best)
	}
	if d := obs.Reg().Snapshot()["detect_solves_total"].Value - solves0; d != 0 {
		t.Errorf("cached path triggered %g new solves", d)
	}
}

func TestSessionOptimizeZeroCostDefaults(t *testing.T) {
	s := quickSession(t)
	res, err := s.Optimize(context.Background(), CostFunction{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CostName != ConfigCountCost.Name {
		t.Errorf("zero cost resolved to %q, want %q", res.CostName, ConfigCountCost.Name)
	}
}

func TestSessionRegionPin(t *testing.T) {
	s := quickSession(t)
	s.Options.Region = Region{LoHz: 2e3, HiHz: 4e4}
	row, err := s.Evaluate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if row.Region != s.Options.Region {
		t.Errorf("row region %+v, want options region %+v", row.Region, s.Options.Region)
	}
}

func TestSessionNoChain(t *testing.T) {
	bench := PaperBiquad()
	bench.Chain = nil
	s := NewSession(bench, DeviationFaults(bench.Circuit, 0.20), Options{Points: 31})
	if _, err := s.Matrix(context.Background()); !errors.Is(err, ErrNoChain) {
		t.Errorf("Matrix without chain: err = %v, want ErrNoChain", err)
	}
	if _, err := s.Optimize(context.Background(), ConfigCountCost); !errors.Is(err, ErrNoChain) {
		t.Errorf("Optimize without chain: err = %v, want ErrNoChain", err)
	}
}

// TestContextCancellation: a cancelled context aborts every facade entry
// point with context.Canceled instead of a result.
func TestContextCancellation(t *testing.T) {
	s := quickSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Evaluate(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Evaluate on cancelled ctx: %v", err)
	}
	if _, err := s.Matrix(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Matrix on cancelled ctx: %v", err)
	}
	if _, err := s.Optimize(ctx, ConfigCountCost); !errors.Is(err, context.Canceled) {
		t.Errorf("Optimize on cancelled ctx: %v", err)
	}
	mod, err := s.Modified()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildMatrixContext(ctx, mod, s.Faults, s.Options); !errors.Is(err, context.Canceled) {
		t.Errorf("BuildMatrixContext on cancelled ctx: %v", err)
	}
	if _, err := EvaluateCircuitContext(ctx, s.Bench.Circuit, s.Faults, s.Options); !errors.Is(err, context.Canceled) {
		t.Errorf("EvaluateCircuitContext on cancelled ctx: %v", err)
	}
}

// TestContextCancelMidMatrix: cancelling while the matrix fan-out runs
// stops it between cells — the call returns context.Canceled well before
// the full sweep could finish.
func TestContextCancelMidMatrix(t *testing.T) {
	bench := PaperBiquad()
	s := NewSession(bench, DeviationFaults(bench.Circuit, 0.20), Options{Points: 20001, Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Matrix(ctx)
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("mid-matrix cancel: err = %v, want context.Canceled", err)
	}
}

// TestLoadBenchErrorIncludesPath: both the open and the parse failure wrap
// the underlying error and name the offending path.
func TestLoadBenchErrorIncludesPath(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope.cir")
	_, err := LoadBench(missing)
	if err == nil {
		t.Fatal("LoadBench on a missing file succeeded")
	}
	want := "load bench " + missing + ": "
	if got := err.Error(); len(got) < len(want) || got[:len(want)] != want {
		t.Errorf("error = %q, want prefix %q", got, want)
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("open failure not wrapped with %%w: %v", err)
	}

	bad := filepath.Join(t.TempDir(), "bad.cir")
	if err := os.WriteFile(bad, []byte("R1 only two\n.end\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadBench(bad)
	if err == nil {
		t.Fatal("LoadBench on a malformed deck succeeded")
	}
	want = "load bench " + bad + ": "
	if got := err.Error(); len(got) < len(want) || got[:len(want)] != want {
		t.Errorf("parse error = %q, want prefix %q", got, want)
	}
}
