package analysis

import (
	"errors"
	"math/cmplx"
	"testing"

	"analogdft/internal/circuit"
	"analogdft/internal/circuits"
	"analogdft/internal/dft"
	"analogdft/internal/fault"
	"analogdft/internal/mna"
	"analogdft/internal/numeric"
	"analogdft/internal/obs"
)

func TestEngineSweepGridMatchesSweep(t *testing.T) {
	spec := SweepSpec{StartHz: 10, StopHz: 1e6, Points: 61}
	want, err := Sweep(rcLowpass(), spec)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(rcLowpass())
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.SweepGrid(spec.Grid())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.H {
		if got.H[i] != want.H[i] || got.Valid[i] != want.Valid[i] {
			t.Fatalf("point %d: engine %v vs Sweep %v", i, got.H[i], want.H[i])
		}
	}
	if _, err := e.SweepGrid(nil); !errors.Is(err, ErrBadSweep) {
		t.Fatalf("empty grid err = %v", err)
	}
}

// TestEngineSweepGridFlushesMetrics checks that a sweep's solve counts
// reach the registry when SweepGrid returns, on success and when a
// failed point aborts the sweep.
func TestEngineSweepGridFlushesMetrics(t *testing.T) {
	e, err := NewEngine(rcLowpass())
	if err != nil {
		t.Fatal(err)
	}
	counter := func(name string) float64 { return obs.Reg().Snapshot()[name].Value }
	solves0 := counter("mna_solves_total")
	if _, err := e.SweepGrid([]float64{100, 1e3, 1e4}); err != nil {
		t.Fatal(err)
	}
	if d := counter("mna_solves_total") - solves0; d != 3 {
		t.Fatalf("sweep of 3 points flushed %g solves", d)
	}
	solves0, errs0 := counter("mna_solves_total"), counter("mna_solve_error_total")
	if _, err := e.SweepGrid([]float64{100, -1, 1e4}); err == nil {
		t.Fatal("negative frequency: err = nil")
	}
	if d := counter("mna_solves_total") - solves0; d != 2 {
		t.Fatalf("aborted sweep flushed %g solves, want 2", d)
	}
	if d := counter("mna_solve_error_total") - errs0; d != 1 {
		t.Fatalf("aborted sweep flushed %g errors, want 1", d)
	}
}

// sweepPatched measures f's response over the grid the way the patch
// path does: ApplyFault, SweepGrid, Reset. The engine is back to nominal
// when it returns.
func sweepPatched(t *testing.T, e *Engine, f fault.Fault, grid []float64) *Response {
	t.Helper()
	if err := e.ApplyFault(f); err != nil {
		t.Fatal(err)
	}
	defer e.Reset()
	resp, err := e.SweepGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestEngineSweepFaultMatchesClone(t *testing.T) {
	grid := SweepSpec{StartHz: 10, StopHz: 1e6, Points: 41}.Grid()
	f := fault.Fault{ID: "fR1", Component: "R1", Kind: fault.Deviation, Factor: 1.3}

	e, err := NewEngine(rcLowpass())
	if err != nil {
		t.Fatal(err)
	}
	nominalBefore, err := e.SweepGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	got := sweepPatched(t, e, f, grid)

	faulty, err := f.Apply(rcLowpass())
	if err != nil {
		t.Fatal(err)
	}
	want, err := SweepOnGrid(faulty, grid)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.H {
		if d := cmplx.Abs(got.H[i] - want.H[i]); d > 1e-12*(1+cmplx.Abs(want.H[i])) {
			t.Fatalf("point %d: patched %v vs clone %v (|Δ|=%g)", i, got.H[i], want.H[i], d)
		}
	}

	// Reset must leave the engine exactly nominal: a repeat nominal
	// sweep is bit-identical (Reset restores stamp snapshots bitwise).
	nominalAfter, err := e.SweepGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	for i := range nominalBefore.H {
		if nominalAfter.H[i] != nominalBefore.H[i] {
			t.Fatalf("point %d: nominal drifted after the patched sweep: %v != %v",
				i, nominalAfter.H[i], nominalBefore.H[i])
		}
	}
}

// TestEngineApplyFaultEveryKind holds the patch of every fault kind to
// the clone Apply builds, on the paper biquad with single-pole opamps
// over its whole band: opamp faults read the patched model in the
// per-point row the clone stamps from its own, so they must agree bit
// for bit; opens and shorts add an extreme value delta to the stamps the
// clone builds afresh, so they agree to the rounding of the nominal
// stamps (within 1e-12 of the nominal response's peak plus the clone's
// |H|). Faults Apply refuses — an opamp
// fault on an ideal opamp, an open on a source — fail with Apply's text,
// and no patch leaves the engine off nominal after Reset.
func TestEngineApplyFaultEveryKind(t *testing.T) {
	bench := circuits.PaperBiquad()
	sp := bench.Circuit.Clone()
	for _, op := range sp.Opamps() {
		op.Model, op.A0, op.PoleHz = circuit.ModelSinglePole, 1e5, 10
	}
	grid := SweepSpec{StartHz: 10, StopHz: 1e7, Points: 61}.Grid()
	e, err := NewEngine(sp)
	if err != nil {
		t.Fatal(err)
	}
	nominal, err := e.SweepGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0.0
	for _, h := range nominal.H {
		peak = max(peak, cmplx.Abs(h))
	}
	faults := append(fault.CatastrophicUniverse(sp), fault.OpampUniverse(sp, 0.01, 0.01)...)
	for _, f := range faults {
		got := sweepPatched(t, e, f, grid)
		faulty, err := f.Apply(sp)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SweepOnGrid(faulty, grid)
		if err != nil {
			t.Fatal(err)
		}
		rounding := f.Kind == fault.Open || f.Kind == fault.Short
		for i := range want.H {
			tol := 0.0
			if rounding {
				tol = 1e-12 * (peak + cmplx.Abs(want.H[i]))
			}
			if got.Valid[i] != want.Valid[i] || cmplx.Abs(got.H[i]-want.H[i]) > tol ||
				(tol == 0 && !sameBits(got.H[i:i+1], want.H[i:i+1])) {
				t.Fatalf("%s at %g Hz: patched %v (valid %t), clone %v (valid %t)",
					f.ID, grid[i], got.H[i], got.Valid[i], want.H[i], want.Valid[i])
			}
		}
	}
	ideal, err := NewEngine(bench.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		e   *Engine
		ckt *circuit.Circuit
		f   fault.Fault
	}{
		{ideal, bench.Circuit, fault.Fault{ID: "g", Component: "OP2", Kind: fault.OpampGain, Factor: 0.01}},
		{e, sp, fault.Fault{ID: "p", Component: "R1", Kind: fault.OpampPole, Factor: 0.01}},
		{e, sp, fault.Fault{ID: "o", Component: "OP1", Kind: fault.Open}},
	} {
		_, aerr := c.f.Apply(c.ckt)
		if err := c.e.ApplyFault(c.f); err == nil || aerr == nil || err.Error() != aerr.Error() {
			t.Errorf("%s on %s: ApplyFault err %v, Apply err %v", c.f.Kind, c.f.Component, err, aerr)
		}
	}
	after, err := e.SweepGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(after.H, nominal.H) {
		t.Fatal("the engine is off nominal after the patches")
	}
}

func TestEngineRetrySingularPoints(t *testing.T) {
	e, err := NewEngine(rcLowpass())
	if err != nil {
		t.Fatal(err)
	}
	grid := []float64{100, 1e3, 1e4}
	resp, err := e.SweepGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	// Forge an invalid point; the retry must recover it on the engine's
	// own system without rebuilding anything.
	resp.Valid[1] = false
	resp.H[1] = 0
	recovered, solves, err := e.RetrySingularPoints(resp, 3)
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 1 || solves != 1 {
		t.Fatalf("recovered = %d, solves = %d; want 1, 1", recovered, solves)
	}
	if !resp.AllValid() {
		t.Fatal("point not marked valid after recovery")
	}
	// No-op cases.
	if r, s, err := e.RetrySingularPoints(resp, 3); err != nil || r != 0 || s != 0 {
		t.Fatalf("no-invalid retry = (%d, %d, %v)", r, s, err)
	}
	resp.Valid[0] = false
	if r, s, err := e.RetrySingularPoints(resp, 0); err != nil || r != 0 || s != 0 {
		t.Fatalf("zero-attempts retry = (%d, %d, %v)", r, s, err)
	}
}

// TestSwitchedEngineNamesConfiguration checks that a solve error of an
// engine switched to a configuration names the configured circuit, as
// the error of an engine built on that circuit does, word for word, and
// that the engine it was forked from keeps the functional circuit's name.
func TestSwitchedEngineNamesConfiguration(t *testing.T) {
	bench := circuits.PaperBiquad()
	ckt := bench.Circuit.Clone()
	// A capacitive divider off the input: singular at DC in every
	// configuration.
	ckt.Cap("CX1", ckt.Input, "iso", 1e-9)
	ckt.Cap("CX2", "iso", "0", 1e-9)
	m, err := dft.Apply(ckt, bench.Chain)
	if err != nil {
		t.Fatal(err)
	}
	functional, err := m.Configure(dft.Configuration{Index: 0, N: m.N()})
	if err != nil {
		t.Fatal(err)
	}
	base, err := newEngine(functional, m.Chain)
	if err != nil {
		t.Fatal(err)
	}
	solveErr := func(e *Engine) error {
		t.Helper()
		_, err := e.sw.VoltageAt(0)
		var se *mna.SolveError
		if !errors.As(err, &se) || !errors.Is(err, numeric.ErrSingular) {
			t.Fatalf("err = %v, want a singular *mna.SolveError", err)
		}
		return err
	}
	for _, cfg := range m.Configurations(false)[1:] {
		configured, err := m.Configure(cfg)
		if err != nil {
			t.Fatal(err)
		}
		clone, err := NewEngine(configured)
		if err != nil {
			t.Fatal(err)
		}
		fork, err := base.Fork()
		if err != nil {
			t.Fatal(err)
		}
		var followers []int
		for a := range m.Chain {
			if cfg.Follower(a) {
				followers = append(followers, a)
			}
		}
		if err := fork.SetFollowers(configured.Name, followers); err != nil {
			t.Fatal(err)
		}
		if got, want := solveErr(fork).Error(), solveErr(clone).Error(); got != want {
			t.Errorf("%s: switched engine's error %q, want %q", cfg.Label(), got, want)
		}
	}
	var se *mna.SolveError
	if errors.As(solveErr(base), &se); se.Circuit != functional.Name {
		t.Errorf("basis engine's error names %q, want %q", se.Circuit, functional.Name)
	}
}
