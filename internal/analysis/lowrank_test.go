package analysis

import (
	"context"
	"errors"
	"math/cmplx"
	"testing"

	"analogdft/internal/circuit"
	"analogdft/internal/fault"
	"analogdft/internal/mna"
	"analogdft/internal/obs"
)

// lrLadder returns an RLC ladder with a VCVS stage, so the low-rank sweep
// is exercised across G-type and C-type deltas on a circuit with branch
// unknowns.
func lrLadder() *circuit.Circuit {
	c := circuit.New("lrladder")
	c.R("R1", "in", "n1", 1e3)
	c.Cap("C1", "n1", "0", 100e-9)
	c.L("L1", "n1", "n2", 10e-3)
	c.R("R2", "n2", "0", 2e3)
	c.E("E1", "out", "0", "n2", "0", 2)
	c.R("RL", "out", "0", 1e3)
	c.Input, c.Output = "in", "out"
	return c
}

// lowRank lowers faults for one SweepLowRank walk.
func lowRank(t *testing.T, e *Engine, faults ...fault.Fault) []LowRankFault {
	t.Helper()
	lfs := make([]LowRankFault, len(faults))
	for j, f := range faults {
		if err := e.PrepareLowRank(f, &lfs[j]); err != nil {
			t.Fatalf("%s: %v", f.ID, err)
		}
	}
	return lfs
}

// requireClose compares a rank-1 response with a patched one: same
// validity, values within rounding.
func requireClose(t *testing.T, got, want *Response) {
	t.Helper()
	for i := range want.H {
		if got.Valid[i] != want.Valid[i] {
			t.Fatalf("point %d: validity %v vs %v", i, got.Valid[i], want.Valid[i])
		}
		if d := cmplx.Abs(got.H[i] - want.H[i]); d > 1e-11*(1+cmplx.Abs(want.H[i])) {
			t.Fatalf("point %d: lowrank %v vs patched %v (|Δ|=%g)", i, got.H[i], want.H[i], d)
		}
	}
}

// TestSweepLowRankMatchesSweepFault checks the Sherman–Morrison path
// against the in-place patch path on every rank-1-patchable component
// kind the ladder offers, all answered in one walk; that the walk's
// nominal carries the bits of SweepGrid's; and that the engine stays
// exactly nominal.
func TestSweepLowRankMatchesSweepFault(t *testing.T) {
	grid := SweepSpec{StartHz: 10, StopHz: 1e6, Points: 41}.Grid()
	e, err := NewEngine(lrLadder())
	if err != nil {
		t.Fatal(err)
	}
	nominalBefore, err := e.SweepGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	faults := []fault.Fault{
		{ID: "fR1", Component: "R1", Kind: fault.Deviation, Factor: 1.3},
		{ID: "fC1", Component: "C1", Kind: fault.Deviation, Factor: 0.7},
		{ID: "fL1", Component: "L1", Kind: fault.Deviation, Factor: 1.5},
		{ID: "fE1", Component: "E1", Kind: fault.Deviation, Factor: 0.5},
	}
	row, err := e.SweepLowRank(context.Background(), grid, lowRank(t, e, faults...))
	if err != nil {
		t.Fatal(err)
	}
	for i := range nominalBefore.H {
		if row.Nominal.H[i] != nominalBefore.H[i] || row.Nominal.Valid[i] != nominalBefore.Valid[i] {
			t.Fatalf("point %d: walk nominal %v, SweepGrid %v", i, row.Nominal.H[i], nominalBefore.H[i])
		}
	}
	for j, f := range faults {
		t.Run(f.ID, func(t *testing.T) {
			want, err := e.SweepFault(f, grid)
			if err != nil {
				t.Fatal(err)
			}
			requireClose(t, &row.Faulty[j], want)
		})
	}
	// The walk must not have drifted the nominal state.
	nominalAfter, err := e.SweepGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	for i := range nominalBefore.H {
		if nominalAfter.H[i] != nominalBefore.H[i] {
			t.Fatalf("point %d: nominal drifted after low-rank sweeps: %v != %v",
				i, nominalAfter.H[i], nominalBefore.H[i])
		}
	}
}

// TestSweepLowRankFactorsOncePerPoint pins the walk's cost: however many
// faults it answers, it factors once per grid point (mna_solves_total
// grows by the grid length) and performs one Sherman–Morrison solve per
// (fault, point).
func TestSweepLowRankFactorsOncePerPoint(t *testing.T) {
	e, err := NewEngine(rcLowpass())
	if err != nil {
		t.Fatal(err)
	}
	grid := []float64{100, rcCorner, 1e5}
	lfs := lowRank(t, e,
		fault.Fault{ID: "fR1", Component: "R1", Kind: fault.Deviation, Factor: 2},
		fault.Fault{ID: "fC1", Component: "C1", Kind: fault.Deviation, Factor: 0.5},
	)
	counter := func(name string) float64 { return obs.Reg().Snapshot()[name].Value }
	solves0, rank10 := counter("mna_solves_total"), counter("engine_lowrank_solve_total")
	if _, err := e.SweepLowRank(context.Background(), grid, lfs); err != nil {
		t.Fatal(err)
	}
	if d := counter("mna_solves_total") - solves0; d != float64(len(grid)) {
		t.Errorf("walk did %g factorizations, want %d", d, len(grid))
	}
	if d := counter("engine_lowrank_solve_total") - rank10; d != float64(len(grid)*len(lfs)) {
		t.Errorf("walk did %g rank-1 solves, want %d", d, len(grid)*len(lfs))
	}
}

// TestPrepareLowRankFallbackTriggers covers the refusals callers use to
// pick the fallback path: unpatchable fault kinds propagate
// fault.ErrNotPatchable (→ clone path), patchable faults whose delta is
// not rank-1 propagate mna.ErrNotLowRank (→ in-place patch path).
func TestPrepareLowRankFallbackTriggers(t *testing.T) {
	c := circuit.New("fb")
	c.R("R1", "in", "out", 1e3)
	c.Cap("C1", "out", "0", 100e-9)
	c.I("I1", "out", "0", 1e-3)
	c.Input, c.Output = "in", "out"
	e, err := NewEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	var lf LowRankFault
	if err := e.PrepareLowRank(fault.Fault{ID: "o", Component: "R1", Kind: fault.Open}, &lf); !errors.Is(err, fault.ErrNotPatchable) {
		t.Errorf("open fault: err = %v, want ErrNotPatchable", err)
	}
	if err := e.PrepareLowRank(fault.Fault{ID: "i", Component: "I1", Kind: fault.Deviation, Factor: 2}, &lf); !errors.Is(err, mna.ErrNotLowRank) {
		t.Errorf("current-source fault: err = %v, want ErrNotLowRank", err)
	}
	// The refusals must leave the engine fully usable on the fast path.
	lfs := lowRank(t, e, fault.Fault{ID: "r", Component: "R1", Kind: fault.Deviation, Factor: 1.5})
	row, err := e.SweepLowRank(context.Background(), []float64{100, 1e4}, lfs)
	if err != nil {
		t.Fatal(err)
	}
	if !row.Faulty[0].AllValid() {
		t.Fatal("rank-1 sweep after refusals produced invalid points")
	}
}

// TestSweepLowRankSingularUpdateFallback drives the Sherman–Morrison
// denominator to exactly zero: on a 1k/1k divider, patching R2 to −1kΩ
// makes the patched matrix singular (det ∝ g1 + g2'), while the nominal
// factors fine. The walk must detect the singular update and leave the
// points for the patched re-solve, which finds them singular too and
// leaves them invalid — exactly the reference path's verdict. The fault
// is hand-built because fault.Validate (correctly) refuses negative
// factors.
func TestSweepLowRankSingularUpdateFallback(t *testing.T) {
	c := circuit.New("div")
	c.R("R1", "in", "out", 1e3)
	c.R("R2", "out", "0", 1e3)
	c.Input, c.Output = "in", "out"
	e, err := NewEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	lfs := make([]LowRankFault, 1)
	if err := e.sys.RankOneDeltaInto("R2", -1e3, &lfs[0].delta); err != nil {
		t.Fatal(err)
	}
	grid := []float64{100, 1e3, 1e4}
	row, err := e.SweepLowRank(context.Background(), grid, lfs)
	if err != nil {
		t.Fatal(err)
	}
	resp := &row.Faulty[0]
	if n := resp.ValidCount(); n != 0 {
		t.Fatalf("%d points answered, want 0 (every update is singular)", n)
	}
	if !row.Nominal.AllValid() {
		t.Fatal("nominal walk invalid")
	}
	if err := e.sys.SetValue("R2", -1e3); err != nil {
		t.Fatal(err)
	}
	if err := e.ResolvePoints(resp, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	if n := resp.ValidCount(); n != 0 {
		t.Fatalf("%d points valid, want 0 (patched divider is singular at every frequency)", n)
	}
	// The engine must be nominal again after the re-solve's patch.
	if e.sys.Patched() {
		t.Fatal("fallback left a live patch")
	}
	nom, err := e.SweepGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	if !nom.AllValid() {
		t.Fatal("nominal sweep invalid after fallback")
	}
}

// TestSweepLowRankSingularNominalPoint exercises the unanswerable
// nominal point: at 0 Hz the capacitive divider hanging off the output
// has a floating internal node (an all-zero row), so the nominal
// factorization fails at that one grid point while the rest of the grid
// is fine. The walk must leave that point to the patched re-solve, and
// the two together must agree with SweepFault on validity and values.
func TestSweepLowRankSingularNominalPoint(t *testing.T) {
	c := rcLowpass()
	c.Cap("CX", "out", "n2", 10e-9)
	c.Cap("CY", "n2", "0", 10e-9)
	e, err := NewEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	f := fault.Fault{ID: "fR1", Component: "R1", Kind: fault.Deviation, Factor: 1.3}
	grid := []float64{0, rcCorner, 1e5}
	row, err := e.SweepLowRank(context.Background(), grid, lowRank(t, e, f))
	if err != nil {
		t.Fatal(err)
	}
	got := &row.Faulty[0]
	if got.Valid[0] || !got.Valid[1] || !got.Valid[2] || row.Nominal.Valid[0] {
		t.Fatalf("validity = %v (nominal %v), want [false true true]", got.Valid, row.Nominal.Valid)
	}
	if err := e.ApplyFault(f); err != nil {
		t.Fatal(err)
	}
	if err := e.ResolvePoints(got, []int{0}); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	want, err := e.SweepFault(f, grid)
	if err != nil {
		t.Fatal(err)
	}
	requireClose(t, got, want)
}

// TestSweepLowRankRejectsBadState pins the guard rails: an empty grid and
// a patched system are ErrBadSweep, and a cancelled context stops the
// walk with its error.
func TestSweepLowRankRejectsBadState(t *testing.T) {
	e, err := NewEngine(rcLowpass())
	if err != nil {
		t.Fatal(err)
	}
	lfs := lowRank(t, e, fault.Fault{ID: "f", Component: "R1", Kind: fault.Deviation, Factor: 2})
	ctx := context.Background()
	if _, err := e.SweepLowRank(ctx, nil, lfs); !errors.Is(err, ErrBadSweep) {
		t.Fatalf("empty grid: err = %v, want ErrBadSweep", err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := e.SweepLowRank(cancelled, []float64{100}, lfs); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled walk: err = %v, want context.Canceled", err)
	}
	if err := e.ApplyFault(fault.Fault{ID: "g", Component: "C1", Kind: fault.Deviation, Factor: 2}); err != nil {
		t.Fatal(err)
	}
	defer e.Reset()
	if _, err := e.SweepLowRank(ctx, []float64{100}, lfs); !errors.Is(err, ErrBadSweep) {
		t.Fatalf("patched system: err = %v, want ErrBadSweep", err)
	}
}
