package numeric

import (
	"errors"
	"math/cmplx"
	"testing"
)

// testMatrix returns a well-conditioned 4×4 complex matrix and an RHS.
func testMatrix() (*Matrix, []complex128) {
	m, err := FromRows([][]complex128{
		{4 + 1i, 1, 0, 2},
		{1, 5, 1 - 1i, 0},
		{0, 1 + 2i, 6, 1},
		{2, 0, 1, 7 - 1i},
	})
	if err != nil {
		panic(err)
	}
	b := []complex128{1, 2 - 1i, 0, 3}
	return m, b
}

// newTestSolver factors m sparsely and primes the solver with A⁻¹b.
func newTestSolver(t *testing.T, m *Matrix, b []complex128) *LowRankSolver {
	t.Helper()
	p, vals := patternOf(t, m)
	lu, err := NewSparseScratch(p).Factor(vals)
	if err != nil {
		t.Fatal(err)
	}
	y := append([]complex128(nil), b...)
	if err := lu.SolveInPlace(y); err != nil {
		t.Fatal(err)
	}
	ls, err := NewLowRankSolver(lu, y)
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

// TestSolveRankOneMatchesDirect compares the Sherman–Morrison solution of
// (A + s·u·vᵀ)x = b against numeric.Solve on the perturbed matrix, for
// several scales and sparse update patterns.
func TestSolveRankOneMatchesDirect(t *testing.T) {
	a, b := testMatrix()
	ls := newTestSolver(t, a, b)
	cases := []struct {
		name       string
		s          complex128
		uIdx, vIdx []int
		uVal, vVal []complex128
	}{
		{"conductance", 0.5, []int{0, 1}, []int{0, 1}, []complex128{1, -1}, []complex128{1, -1}},
		{"capacitive", 2i, []int{1, 2}, []int{1, 2}, []complex128{1, -1}, []complex128{1, -1}},
		{"asymmetric", -0.3 + 0.1i, []int{2}, []int{0, 3}, []complex128{1}, []complex128{1, -1}},
		{"single-entry", 1.5, []int{3}, []int{3}, []complex128{1}, []complex128{1}},
	}
	x := make([]complex128, 4)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := ls.SolveRankOneSparse(c.s, c.uIdx, c.uVal, c.vIdx, c.vVal, x); err != nil {
				t.Fatal(err)
			}
			// Direct reference: perturb A densely and solve from scratch.
			p := a.Clone()
			for ki, i := range c.uIdx {
				for kj, j := range c.vIdx {
					p.Add(i, j, c.s*c.uVal[ki]*c.vVal[kj])
				}
			}
			want, err := Solve(p, b)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if d := cmplx.Abs(x[i] - want[i]); d > 1e-12 {
					t.Errorf("x[%d] = %v, direct %v (|Δ| = %g)", i, x[i], want[i], d)
				}
			}
		})
	}
}

// TestSolveRankOneZeroScale checks the s = 0 short-circuit returns the
// nominal solution bit-for-bit.
func TestSolveRankOneZeroScale(t *testing.T) {
	a, b := testMatrix()
	ls := newTestSolver(t, a, b)
	x := make([]complex128, 4)
	e0, one := []int{0}, []complex128{1}
	if err := ls.SolveRankOneSparse(0, e0, one, e0, one, x); err != nil {
		t.Fatal(err)
	}
	for i, y := range ls.Nominal() {
		if x[i] != y {
			t.Fatalf("x[%d] = %v, nominal %v", i, x[i], y)
		}
	}
}

// TestSolveRankOneSingularUpdate drives the denominator to zero: A = I,
// u = v = e₀, s = −1 makes A + s·u·vᵀ exactly singular, and the detector
// must refuse rather than divide by (nearly) zero.
func TestSolveRankOneSingularUpdate(t *testing.T) {
	ls := newTestSolver(t, Identity(3), []complex128{1, 1, 1})
	e0, one := []int{0}, []complex128{1}
	x := make([]complex128, 3)
	if err := ls.SolveRankOneSparse(-1, e0, one, e0, one, x); !errors.Is(err, ErrSingularUpdate) {
		t.Fatalf("err = %v, want ErrSingularUpdate", err)
	}
}

// TestSolveRankOneShapeErrors covers operand validation in the
// constructor and the solve.
func TestSolveRankOneShapeErrors(t *testing.T) {
	a, b := testMatrix()
	p, vals := patternOf(t, a)
	lu, err := NewSparseScratch(p).Factor(vals)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLowRankSolver(lu, b[:2]); !errors.Is(err, ErrShape) {
		t.Fatalf("short nominal solution: err = %v, want ErrShape", err)
	}
	ls := newTestSolver(t, a, b)
	idx, one := []int{1}, []complex128{1}
	if err := ls.SolveRankOneSparse(1, []int{-1}, one, idx, one, make([]complex128, 4)); !errors.Is(err, ErrShape) {
		t.Fatalf("negative u index: err = %v, want ErrShape", err)
	}
	if err := ls.SolveRankOneSparse(1, idx, one, []int{4}, one, make([]complex128, 4)); !errors.Is(err, ErrShape) {
		t.Fatalf("v index past order: err = %v, want ErrShape", err)
	}
	if err := ls.SolveRankOneSparse(1, idx, one, idx, one, make([]complex128, 5)); !errors.Is(err, ErrShape) {
		t.Fatalf("long x: err = %v, want ErrShape", err)
	}
}

// TestSolveRankOneEntryMatchesFull checks that the single-entry solve
// carries the bits of the full solve's entry for every k and scale, that
// xk = y[k] − cz exactly, and that Reset rebinds a solver to another
// factorization without reallocating its scratch.
func TestSolveRankOneEntryMatchesFull(t *testing.T) {
	a, b := testMatrix()
	ls := newTestSolver(t, a, b)
	uIdx, uVal := []int{0, 2}, []complex128{1, -1}
	vIdx, vVal := []int{1, 2}, []complex128{1, -1}
	x := make([]complex128, 4)
	for _, s := range []complex128{0, 0.5, -0.3 + 2i} {
		if err := ls.SolveRankOneSparse(s, uIdx, uVal, vIdx, vVal, x); err != nil {
			t.Fatal(err)
		}
		for k := range x {
			xk, cz, err := ls.SolveRankOneEntry(s, uIdx, uVal, vIdx, vVal, k)
			if err != nil {
				t.Fatal(err)
			}
			if xk != x[k] || xk != ls.Nominal()[k]-cz {
				t.Errorf("s=%v k=%d: entry %v (cz %v), full %v", s, k, xk, cz, x[k])
			}
		}
	}
	if _, _, err := ls.SolveRankOneEntry(1, uIdx, uVal, vIdx, vVal, 4); !errors.Is(err, ErrShape) {
		t.Fatalf("entry past order: err = %v, want ErrShape", err)
	}

	other := newTestSolver(t, Identity(4), b)
	scratch := &ls.z[0]
	if err := ls.Reset(other.lu, other.y); err != nil {
		t.Fatal(err)
	}
	if &ls.z[0] != scratch {
		t.Error("Reset reallocated a scratch that fits")
	}
	if xk, _, err := ls.SolveRankOneEntry(0, uIdx, uVal, vIdx, vVal, 3); err != nil || xk != b[3] {
		t.Fatalf("after Reset: x[3] = %v (err %v), want %v", xk, err, b[3])
	}
	if err := ls.Reset(other.lu, b[:3]); !errors.Is(err, ErrShape) {
		t.Fatalf("short nominal solution: err = %v, want ErrShape", err)
	}
}
