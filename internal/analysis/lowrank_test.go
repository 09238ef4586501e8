package analysis

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"slices"
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

// filledBasis builds the chain-less basis of ckt over grid for faults,
// every one of which must be rank-1, and fills it in one chunk: the basis
// a row of ckt's own matrix reads.
func filledBasis(t *testing.T, ckt *circuit.Circuit, grid []float64, faults ...fault.Fault) *Basis {
	t.Helper()
	b, err := NewBasis(ckt, nil, grid, faults)
	if err != nil {
		t.Fatal(err)
	}
	if j := slices.Index(b.Slots(), -1); j >= 0 {
		t.Fatalf("%s is not rank-1", faults[j].ID)
	}
	if err := b.Fill(context.Background(), 0, 1); err != nil {
		t.Fatal(err)
	}
	return b
}

// walkRow runs e's SweepLowRank walk of b into a row of its own.
func walkRow(e *Engine, ctx context.Context, b *Basis, s []int) (*LowRankRow, error) {
	row := new(LowRankRow)
	return row, e.SweepLowRank(ctx, b, s, row)
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
// kind the ladder offers, all answered in one walk of the circuit's own
// basis; that the walk's nominal carries the bits of SweepGrid's; and
// that the engine stays exactly nominal.
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
	row, err := walkRow(e, context.Background(), filledBasis(t, lrLadder(), grid, faults...), nil)
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
			requireClose(t, &row.Faulty[j], sweepPatched(t, e, f, grid))
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

// TestSweepLowRankFactorsOncePerPoint pins the cost of a row of the
// basis matrix: however many faults it answers, the basis factors once
// per grid point (mna_solves_total grows by the grid length), the walk
// factors nothing and performs one Sherman–Morrison solve per (fault,
// point).
func TestSweepLowRankFactorsOncePerPoint(t *testing.T) {
	e, err := NewEngine(rcLowpass())
	if err != nil {
		t.Fatal(err)
	}
	grid := []float64{100, rcCorner, 1e5}
	faults := []fault.Fault{
		{ID: "fR1", Component: "R1", Kind: fault.Deviation, Factor: 2},
		{ID: "fC1", Component: "C1", Kind: fault.Deviation, Factor: 0.5},
	}
	counter := func(name string) float64 { return obs.Reg().Snapshot()[name].Value }
	solves0 := counter("mna_solves_total")
	b := filledBasis(t, rcLowpass(), grid, faults...)
	if d := counter("mna_solves_total") - solves0; d != float64(len(grid)) {
		t.Errorf("basis did %g factorizations, want %d", d, len(grid))
	}
	solves0, rank10 := counter("mna_solves_total"), counter("engine_lowrank_solve_total")
	if _, err := walkRow(e, context.Background(), b, nil); err != nil {
		t.Fatal(err)
	}
	if d := counter("mna_solves_total") - solves0; d != 0 {
		t.Errorf("walk did %g factorizations, want 0", d)
	}
	if d := counter("engine_lowrank_solve_total") - rank10; d != float64(len(grid)*len(faults)) {
		t.Errorf("walk did %g rank-1 solves, want %d", d, len(grid)*len(faults))
	}
}

// TestSweepLowRankSharesIncidence checks that faults on one incidence
// — a resistor, the capacitor across the same node pair, and the
// resistor again at another value — share one z solve of the basis per
// point, and
// that every answer, Spread included, keeps the bits of a walk that
// answers the fault alone.
func TestSweepLowRankSharesIncidence(t *testing.T) {
	c := circuit.New("rpar")
	c.R("R1", "in", "out", 1e3)
	c.R("R2", "out", "0", 2e3)
	c.Cap("C1", "out", "0", 100e-9)
	c.Input, c.Output = "in", "out"
	e, err := NewEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	grid := SweepSpec{StartHz: 10, StopHz: 1e6, Points: 21}.Grid()
	faults := []fault.Fault{
		{ID: "fR2+", Component: "R2", Kind: fault.Deviation, Factor: 1.3},
		{ID: "fR1", Component: "R1", Kind: fault.Deviation, Factor: 0.8},
		{ID: "fC1", Component: "C1", Kind: fault.Deviation, Factor: 0.7},
		{ID: "fR2-", Component: "R2", Kind: fault.Deviation, Factor: 0.7},
	}
	counter := func(name string) float64 { return obs.Reg().Snapshot()[name].Value }
	inc0, rank10 := counter("engine_lowrank_incidence_total"), counter("engine_lowrank_solve_total")
	row, err := walkRow(e, context.Background(), filledBasis(t, c, grid, faults...), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := counter("engine_lowrank_incidence_total") - inc0; d != float64(2*len(grid)) {
		t.Errorf("basis did %g incidence solves, want %d (two incidences × %d points)", d, 2*len(grid), len(grid))
	}
	if d := counter("engine_lowrank_solve_total") - rank10; d != float64(len(faults)*len(grid)) {
		t.Errorf("walk answered %g fault-points, want %d", d, len(faults)*len(grid))
	}
	for j, f := range faults {
		alone, err := walkRow(e, context.Background(), filledBasis(t, c, grid, f), nil)
		if err != nil {
			t.Fatal(err)
		}
		got, want := &row.Faulty[j], &alone.Faulty[0]
		for i := range grid {
			if got.Valid[i] != want.Valid[i] || !sameBits(got.H[i:i+1], want.H[i:i+1]) ||
				math.Float64bits(row.Spread[j*len(grid)+i]) != math.Float64bits(alone.Spread[i]) {
				t.Fatalf("%s point %d: grouped %v (spread %g), alone %v (spread %g)",
					f.ID, i, got.H[i], row.Spread[j*len(grid)+i], want.H[i], alone.Spread[i])
			}
		}
	}
}

// TestSweepAllocsFlatInGrid pins the allocation-flat sweep design: the
// number of objects SweepGrid and SweepLowRank (over a filled basis)
// allocate does not grow with the grid. Per-point work reuses the
// sweeper's workspace and the walk's scratch, so SweepGrid allocates
// only its response buffers, once per sweep, and a walk into a reused
// row nothing.
func TestSweepAllocsFlatInGrid(t *testing.T) {
	e, err := NewEngine(lrLadder())
	if err != nil {
		t.Fatal(err)
	}
	faults := []fault.Fault{
		{ID: "fR1", Component: "R1", Kind: fault.Deviation, Factor: 1.3},
		{ID: "fC1", Component: "C1", Kind: fault.Deviation, Factor: 0.7},
	}
	allocs := func(points int) (grid, lowRank float64) {
		g := SweepSpec{StartHz: 10, StopHz: 1e6, Points: points}.Grid()
		grid = testing.AllocsPerRun(5, func() {
			if _, err := e.SweepGrid(g); err != nil {
				t.Fatal(err)
			}
		})
		b := filledBasis(t, lrLadder(), g, faults...)
		var row LowRankRow
		lowRank = testing.AllocsPerRun(5, func() {
			if err := e.SweepLowRank(context.Background(), b, nil, &row); err != nil {
				t.Fatal(err)
			}
		})
		return grid, lowRank
	}
	grid61, lr61 := allocs(61)
	grid241, lr241 := allocs(241)
	if grid61 != grid241 {
		t.Errorf("SweepGrid allocates %v objects at 61 points, %v at 241", grid61, grid241)
	}
	if lr61 != lr241 {
		t.Errorf("SweepLowRank allocates %v objects at 61 points, %v at 241", lr61, lr241)
	}
	t.Logf("allocs per sweep: SweepGrid %v, SweepLowRank %v", grid61, lr61)
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
	open := fault.Fault{ID: "o", Component: "R1", Kind: fault.Open}
	source := fault.Fault{ID: "i", Component: "I1", Kind: fault.Deviation, Factor: 2}
	var lf lowRankFault
	if err := e.prepareLowRank(open, &lf); !errors.Is(err, fault.ErrNotPatchable) {
		t.Errorf("open fault: err = %v, want ErrNotPatchable", err)
	}
	if err := e.prepareLowRank(source, &lf); !errors.Is(err, mna.ErrNotLowRank) {
		t.Errorf("current-source fault: err = %v, want ErrNotLowRank", err)
	}
	// A basis leaves the refused faults out, and the refusals must leave
	// the engine fully usable on the fast path.
	b, err := NewBasis(c, nil, []float64{100, 1e4}, fault.List{open, source, {ID: "r", Component: "R1", Kind: fault.Deviation, Factor: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Slots(); !slices.Equal(got, []int{-1, -1, 0}) {
		t.Fatalf("slots = %v, want [-1 -1 0]", got)
	}
	if err := b.Fill(context.Background(), 0, 1); err != nil {
		t.Fatal(err)
	}
	row, err := walkRow(e, context.Background(), b, nil)
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
	grid := []float64{100, 1e3, 1e4}
	b, err := NewBasis(c, nil, grid, fault.List{{ID: "fR2", Component: "R2", Kind: fault.Deviation, Factor: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// The same incidence at −1kΩ.
	if err := e.sys.RankOneDeltaInto("R2", -1e3, &b.lfs[0].delta); err != nil {
		t.Fatal(err)
	}
	if err := b.Fill(context.Background(), 0, 1); err != nil {
		t.Fatal(err)
	}
	row, err := walkRow(e, context.Background(), b, nil)
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
// has a floating internal node (an all-zero row), so the basis
// factorization fails at that one grid point while the rest of the grid
// is fine. The walk must leave that point to the patched re-solve, and
// the two together must agree with the patched sweep on validity and
// values.
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
	row, err := walkRow(e, context.Background(), filledBasis(t, c, grid, f), nil)
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
	requireClose(t, got, sweepPatched(t, e, f, grid))
}

// TestSweepLowRankRejectsBadState pins the guard rails: a basis over an
// empty grid and a walk on a patched system are ErrBadSweep, and a
// cancelled context stops the fill and the walk with its error.
func TestSweepLowRankRejectsBadState(t *testing.T) {
	e, err := NewEngine(rcLowpass())
	if err != nil {
		t.Fatal(err)
	}
	f := fault.Fault{ID: "f", Component: "R1", Kind: fault.Deviation, Factor: 2}
	ctx := context.Background()
	if _, err := NewBasis(rcLowpass(), nil, nil, fault.List{f}); !errors.Is(err, ErrBadSweep) {
		t.Fatalf("empty grid: err = %v, want ErrBadSweep", err)
	}
	b := filledBasis(t, rcLowpass(), []float64{100}, f)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := b.Fill(cancelled, 0, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fill: err = %v, want context.Canceled", err)
	}
	if _, err := walkRow(e, cancelled, b, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled walk: err = %v, want context.Canceled", err)
	}
	if err := e.ApplyFault(fault.Fault{ID: "g", Component: "C1", Kind: fault.Deviation, Factor: 2}); err != nil {
		t.Fatal(err)
	}
	defer e.Reset()
	if _, err := walkRow(e, ctx, b, nil); !errors.Is(err, ErrBadSweep) {
		t.Fatalf("patched system: err = %v, want ErrBadSweep", err)
	}
}
