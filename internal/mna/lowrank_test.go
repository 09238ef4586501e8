package mna

import (
	"errors"
	"fmt"
	"math/cmplx"
	"slices"
	"testing"

	"analogdft/internal/circuit"
	"analogdft/internal/numeric"
)

// lowRankCircuit exercises every rank-1-patchable component kind, plus an
// opamp and the independent sources that must be refused.
func lowRankCircuit() *circuit.Circuit {
	c := circuit.New("lr")
	c.V("V1", "in", "0", 1)
	c.R("R1", "in", "n1", 1e3)
	c.Cap("C1", "n1", "0", 10e-9)
	c.L("L1", "n1", "n2", 1e-3)
	c.R("R2", "n2", "0", 2e3)
	c.E("E1", "n3", "0", "n1", "0", 2)
	c.R("RE", "n3", "0", 1e3)
	c.G("G1", "n4", "0", "n2", "0", 1e-3)
	c.R("RG", "n4", "0", 1e3)
	c.H("H1", "n5", "0", "V1", 50)
	c.R("RH", "n5", "0", 1e3)
	c.F("F1", "n6", "0", "V1", 3)
	c.R("RF", "n6", "0", 1e3)
	c.I("I1", "n6", "0", 1e-3)
	return c
}

// assembleAt returns a fresh assembly of sys at freqHz, scattered dense.
func assembleAt(t *testing.T, sys *System, freqHz float64) (*numeric.Matrix, []complex128) {
	t.Helper()
	pat, err := sys.Pattern()
	if err != nil {
		t.Fatal(err)
	}
	mv := make([]complex128, pat.NNZ())
	rhs := make([]complex128, sys.N())
	var box numeric.CSRValues
	if _, err := sys.assembleVals(freqHz, mv, rhs, &box); err != nil {
		t.Fatal(err)
	}
	m := numeric.NewMatrix(sys.N(), sys.N())
	if err := pat.ScatterInto(m, mv); err != nil {
		t.Fatal(err)
	}
	return m, rhs
}

// TestRankOneDeltaMatchesSetValue checks, for every supported component
// kind, that the rank-1 delta reproduces exactly the assembled-matrix
// difference a SetValue patch causes: M(patched) = M(nominal) + s·u·vᵀ.
func TestRankOneDeltaMatchesSetValue(t *testing.T) {
	cases := []struct {
		comp  string
		value float64
	}{
		{"R1", 1.3e3},
		{"C1", 14e-9},
		{"L1", 2.5e-3},
		{"E1", 3.5},
		{"G1", 2e-3},
		{"H1", 75},
		{"F1", 4.5},
	}
	const freq = 1234.5
	for _, c := range cases {
		t.Run(c.comp, func(t *testing.T) {
			sys, err := NewSystem(lowRankCircuit())
			if err != nil {
				t.Fatal(err)
			}
			nom, nomRHS := assembleAt(t, sys, freq)

			var d RankOne
			if err := sys.RankOneDeltaInto(c.comp, c.value, &d); err != nil {
				t.Fatalf("RankOneDeltaInto(%s): %v", c.comp, err)
			}
			if d.GCoef != 0 && d.CCoef != 0 {
				t.Fatalf("delta mixes G and C parts: %+v", d)
			}

			if err := sys.SetValue(c.comp, c.value); err != nil {
				t.Fatal(err)
			}
			patched, patchedRHS := assembleAt(t, sys, freq)

			// Expected: nominal + s·u·vᵀ scattered densely.
			n := sys.N()
			u := make([]complex128, n)
			v := make([]complex128, n)
			numeric.ScatterSparse(d.UIdx, d.UVal, u)
			numeric.ScatterSparse(d.VIdx, d.VVal, v)
			s := d.ScaleAt(freq)
			want := nom.Clone()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					want.Add(i, j, s*u[i]*v[j])
				}
			}
			peak, diff := 0.0, 0.0
			for i, w := range want.Data {
				peak, diff = max(peak, cmplx.Abs(w)), max(diff, cmplx.Abs(patched.Data[i]-w))
			}
			if diff > 1e-12*(1+peak) {
				t.Errorf("patched assembly differs from nominal + s·u·vᵀ\npatched: %v\nwant: %v", patched, want)
			}
			for i := range nomRHS {
				if nomRHS[i] != patchedRHS[i] {
					t.Errorf("rhs[%d] moved under a matrix-only patch: %v -> %v", i, nomRHS[i], patchedRHS[i])
				}
			}
		})
	}
}

// TestRankOneDeltaComposesWithLivePatch checks the delta is computed
// against the current patched value, mirroring SetValue's composition.
func TestRankOneDeltaComposesWithLivePatch(t *testing.T) {
	sys, err := NewSystem(lowRankCircuit())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetValue("R1", 2e3); err != nil {
		t.Fatal(err)
	}
	var d RankOne
	if err := sys.RankOneDeltaInto("R1", 4e3, &d); err != nil {
		t.Fatal(err)
	}
	want := complex(1/4e3-1/2e3, 0)
	if d.GCoef != want {
		t.Fatalf("GCoef = %v, want %v (delta vs live patch)", d.GCoef, want)
	}
}

// TestRankOneDeltaNotLowRank covers the refusals: independent sources
// patch the excitation, opamps are not Valued patches at all, a zero
// resistance is unsupported, and unknown names error.
func TestRankOneDeltaNotLowRank(t *testing.T) {
	ckt := lowRankCircuit()
	ckt.OA("OP1", "n1", "n2", "n7")
	ckt.R("RO", "n7", "0", 1e3)
	sys, err := NewSystem(ckt)
	if err != nil {
		t.Fatal(err)
	}
	var d RankOne
	for _, name := range []string{"V1", "I1", "OP1"} {
		if err := sys.RankOneDeltaInto(name, 2, &d); !errors.Is(err, ErrNotLowRank) {
			t.Errorf("RankOneDeltaInto(%s): err = %v, want ErrNotLowRank", name, err)
		}
	}
	if err := sys.RankOneDeltaInto("R1", 0, &d); !errors.Is(err, ErrUnsupported) {
		t.Errorf("zero resistance: err = %v, want ErrUnsupported", err)
	}
	if err := sys.RankOneDeltaInto("nope", 1, &d); err == nil {
		t.Error("unknown component: err = nil")
	}
}

// TestRankOneDeltaLeavesSystemUntouched checks RankOneDeltaInto never
// stamps: the assembled matrix is bit-identical before and after.
func TestRankOneDeltaLeavesSystemUntouched(t *testing.T) {
	sys, err := NewSystem(lowRankCircuit())
	if err != nil {
		t.Fatal(err)
	}
	before, _ := assembleAt(t, sys, 777)
	var d RankOne
	if err := sys.RankOneDeltaInto("C1", 33e-9, &d); err != nil {
		t.Fatal(err)
	}
	after, _ := assembleAt(t, sys, 777)
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatalf("RankOneDeltaInto mutated the stamps at %d: %v -> %v", i, before.Data[i], after.Data[i])
		}
	}
	if sys.Patched() {
		t.Fatal("RankOneDeltaInto left a live patch")
	}
}

// TestScaleAt pins the frequency law s(ω) = GCoef + jω·CCoef.
func TestScaleAt(t *testing.T) {
	d := RankOne{GCoef: 2, CCoef: 3}
	got := d.ScaleAt(1 / (2 * 3.141592653589793))
	if cmplx.Abs(got-(2+3i)) > 1e-12 {
		t.Fatalf("ScaleAt = %v, want 2+3i", got)
	}
}

// TestNodeIndex covers the exported node lookup, including ground.
func TestNodeIndex(t *testing.T) {
	sys, err := NewSystem(lowRankCircuit())
	if err != nil {
		t.Fatal(err)
	}
	if i, err := sys.NodeIndex("0"); err != nil || i != -1 {
		t.Fatalf("ground: (%d, %v), want (-1, nil)", i, err)
	}
	i, err := sys.NodeIndex("n1")
	if err != nil || i < 0 || i >= sys.N() {
		t.Fatalf("n1: (%d, %v)", i, err)
	}
	if _, err := sys.NodeIndex("ghost"); err == nil {
		t.Fatal("unknown node: err = nil")
	}
}

// TestVoltageAtWrapsBackSubstitutionError is the regression test for the
// bare SolveInPlace error return: a back-substitution failure must arrive
// wrapped in *SolveError exactly like a factorization failure, so error
// classification cannot depend on which half of the solve failed.
func TestVoltageAtWrapsBackSubstitutionError(t *testing.T) {
	ckt := circuit.New("wrap")
	ckt.V("V1", "in", "0", 1)
	ckt.R("R1", "in", "out", 1e3)
	ckt.R("R2", "out", "0", 1e3)
	sys, err := NewSystem(ckt)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sys.NewSweeper("out")
	if err != nil {
		t.Fatal(err)
	}
	// Warm one point so the lazily bound workspace exists, then corrupt
	// it so the factorization succeeds but SolveInPlace sees a short RHS.
	// assemble copies into the truncated slice without complaint, so the
	// failure surfaces exactly at back-substitution.
	if _, err := sw.VoltageAt(100); err != nil {
		t.Fatal(err)
	}
	sw.ws.RHS = sw.ws.RHS[:sys.N()-1]
	_, err = sw.VoltageAt(1000)
	if err == nil {
		t.Fatal("corrupted workspace: err = nil")
	}
	var se *SolveError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T %v, want *SolveError", err, err)
	}
	if se.FreqHz != 1000 || se.Circuit != "wrap" {
		t.Fatalf("SolveError context = %q @ %g Hz", se.Circuit, se.FreqHz)
	}
	if !errors.Is(err, numeric.ErrShape) {
		t.Fatalf("err does not unwrap to the cause: %v", err)
	}
}

// TestSelfLoopDeltaScattersZero: a resistor with both terminals on one
// node stamps nothing, and its rank-1 delta u = v = e_a − e_a must scatter
// as the zero vector, so the walk's z solve is zero and the answer is the
// nominal's.
func TestSelfLoopDeltaScattersZero(t *testing.T) {
	ckt := patchBench()
	ckt.R("RS", "a", "a", 1.1)
	sys, err := NewSystem(ckt)
	if err != nil {
		t.Fatal(err)
	}
	var d RankOne
	if err := sys.RankOneDeltaInto("RS", 0.3, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.UIdx) != 2 || d.UIdx[0] != d.UIdx[1] {
		t.Fatalf("self-loop u = %v, want one node twice", d.UIdx)
	}
	u := make([]complex128, sys.N())
	for i := range u {
		u[i] = 7
	}
	numeric.ScatterSparse(d.UIdx, d.UVal, u)
	for i, v := range u {
		if v != 0 {
			t.Fatalf("self-loop u scatters %v at %d, want the zero vector", v, i)
		}
	}
}

// TestFollowerDeltaMatchesConfiguredSolve: the follower delta w of a
// chain opamp, added to its normal constraint row, must give the matrix
// the follower configuration assembles itself, so A + e_r·wᵀ solves as the
// configured circuit does. The opamp buffers with its inverting input on
// its output, and in one case its test input is its non-inverting input,
// so the normal and follower rows share indices, which w must hold once
// with the summed change — for the ideal model w(out) = 2.
func TestFollowerDeltaMatchesConfiguredSolve(t *testing.T) {
	for _, model := range []circuit.OpampModel{circuit.ModelIdeal, circuit.ModelSinglePole} {
		for _, testIn := range []string{"t", "x"} {
			build := func(mode circuit.OpampMode) *circuit.Circuit {
				c := circuit.New("buf")
				c.V("V1", "in", "0", 1)
				c.R("R1", "in", "x", 1e3)
				c.R("R2", "x", "0", 2.2e3)
				c.R("R3", "in", "t", 4.7e3)
				c.Cap("C1", "t", "0", 10e-9)
				op := c.OA("OP1", "x", "o", "o")
				if model == circuit.ModelSinglePole {
					op.Model, op.A0, op.PoleHz = model, 2e5, 8
				}
				op.Configurable, op.TestIn, op.Mode = true, testIn, mode
				c.R("RL", "o", "0", 1e3)
				return c
			}
			normal, err := NewSystem(build(circuit.ModeNormal))
			if err != nil {
				t.Fatal(err)
			}
			follower, err := NewSystem(build(circuit.ModeFollower))
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%v/test input %s", model, testIn)
			for _, f := range []float64{10, 3.3e3, 2e5} {
				var d RowDelta
				if err := normal.FollowerDeltaInto("OP1", f, &d); err != nil {
					t.Fatal(err)
				}
				if seen := map[int]bool{}; true {
					for _, i := range d.Idx {
						if seen[i] {
							t.Fatalf("%s: w repeats index %d: %v", label, i, d.Idx)
						}
						seen[i] = true
					}
				}
				out, _ := normal.NodeIndex("o")
				if o := slices.Index(d.Idx, out); model == circuit.ModelIdeal && (o < 0 || d.Val[o] != 2) {
					t.Errorf("%s: w = %v at %v, want 2 at the output %d", label, d.Val, d.Idx, out)
				}
				m, rhs := assembleAt(t, normal, f)
				for k, j := range d.Idx {
					m.Set(d.Row, j, m.At(d.Row, j)+d.Val[k])
				}
				x, err := numeric.Solve(m, rhs)
				if err != nil {
					t.Fatal(err)
				}
				sol, err := follower.SolveAt(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, node := range []string{"o", "x", "t"} {
					i, _ := normal.NodeIndex(node)
					want, _ := sol.Voltage(node)
					// A single-pole row's entries cancel terms of size A(jω)
					// in A + e_r·wᵀ, so they agree to rounding of that size.
					if cmplx.Abs(x[i]-want) > 1e-9*max(1, cmplx.Abs(want)) {
						t.Errorf("%s at %g Hz: V(%s) = %v from A + e_r·wᵀ, %v configured", label, f, node, x[i], want)
					}
				}
			}
		}
	}
}
