package numeric

import (
	"errors"
	"math"
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

// TestSolveIncidenceMatchesFull checks that one incidence solve answers
// every scale with the bits of the full solve's entry, for every k,
// that xk = y[k] − cz exactly, and that Reset rebinds a solver to
// another factorization without reallocating its scratch.
func TestSolveIncidenceMatchesFull(t *testing.T) {
	a, b := testMatrix()
	ls := newTestSolver(t, a, b)
	uIdx, uVal := []int{0, 2}, []complex128{1, -1}
	vIdx, vVal := []int{1, 2}, []complex128{1, -1}
	x := make([]complex128, 4)
	for k := range x {
		in, err := ls.SolveIncidenceAt(uIdx, uVal, vIdx, vVal, k, vIdx)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []complex128{0, 0.5, -0.3 + 2i} {
			if err := ls.SolveRankOneSparse(s, uIdx, uVal, vIdx, vVal, x); err != nil {
				t.Fatal(err)
			}
			xk, cz, err := in.Entry(s)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(xk, x[k]) || !sameBits(xk, ls.Nominal()[k]-cz) {
				t.Errorf("s=%v k=%d: entry %v (cz %v), full %v", s, k, xk, cz, x[k])
			}
		}
	}
	if _, err := ls.SolveIncidenceAt(uIdx, uVal, vIdx, vVal, 4, vIdx); !errors.Is(err, ErrShape) {
		t.Fatalf("entry past order: err = %v, want ErrShape", err)
	}
	if _, err := ls.SolveIncidenceAt(uIdx, uVal, []int{-1}, vVal[:1], 0, []int{-1}); !errors.Is(err, ErrShape) {
		t.Fatalf("negative v index: err = %v, want ErrShape", err)
	}
	if _, err := ls.SolveIncidenceAt([]int{4}, uVal[:1], vIdx, vVal, 0, vIdx); !errors.Is(err, ErrShape) {
		t.Fatalf("u index past order: err = %v, want ErrShape", err)
	}

	other := newTestSolver(t, Identity(4), b)
	scratch := &ls.z[0]
	if err := ls.Reset(other.lu, other.y); err != nil {
		t.Fatal(err)
	}
	if &ls.z[0] != scratch {
		t.Error("Reset reallocated a scratch that fits")
	}
	in, err := ls.SolveIncidenceAt(uIdx, uVal, vIdx, vVal, 3, vIdx)
	if err != nil {
		t.Fatal(err)
	}
	if xk, _, err := in.Entry(0); err != nil || xk != b[3] {
		t.Fatalf("after Reset: x[3] = %v (err %v), want %v", xk, err, b[3])
	}
	if err := ls.Reset(other.lu, b[:3]); !errors.Is(err, ErrShape) {
		t.Fatalf("short nominal solution: err = %v, want ErrShape", err)
	}
}

// TestSingularDenMatchesAbs holds the squared |den| screen to
// cmplx.Abs's verdict where the squares are closest to deciding wrong:
// one part in 1e15 either side of UpdateTolerance, in either component
// or both, at subnormal and underflowing magnitudes, at zero, at
// infinities and at NaN. It also checks that the squares decide
// ordinary denominators on their own.
func TestSingularDenMatchesAbs(t *testing.T) {
	const tol = UpdateTolerance
	var dens []complex128
	for _, r := range []float64{1 - 1e-15, 1 - 2e-16, 1, 1 + 2e-16, 1 + 1e-15} {
		m := tol * r
		dens = append(dens, complex(m, 0), complex(0, -m), cmplx.Rect(m, 0.7), cmplx.Rect(m, -2.1),
			complex(math.Nextafter(m, 0), 0), complex(math.Nextafter(m, 1), 0))
	}
	for _, v := range []float64{5e-324, 1e-310, 2.2250738585072014e-308, 1e-160, 1e-150} {
		dens = append(dens, complex(v, 0), complex(0, v), complex(v, -v))
	}
	nan, inf := math.NaN(), math.Inf(1)
	dens = append(dens, 0, complex(math.Copysign(0, -1), 0),
		complex(nan, 0), complex(0, nan), complex(nan, nan), complex(inf, 0), complex(inf, nan), complex(nan, -inf),
		1, 1e-4, 1e-12, 1e200, complex(1e-9, 1e-9))
	for _, den := range dens {
		if got, want := singularDen(den), cmplx.Abs(den) < tol; got != want {
			t.Errorf("singularDen(%v) = %v, cmplx.Abs says %v", den, got, want)
		}
	}
	for _, den := range []complex128{1, 1e-4, 1e-12, complex(1e-9, 1e-9)} {
		if sqCmp(sqAbs(den), updateTolSq) == 0 {
			t.Errorf("the squares leave |%v| against the tolerance to cmplx.Abs", den)
		}
	}
}

// TestScatterRepeatedIndex pins the scatter rule both scatters share: an
// index's first entry is assigned — a lone −0 keeps its sign — and a
// repeated index adds, so u = e_a − e_a (a self-loop's incidence)
// scatters as zero and its z solve is zero. SolveSparse's entries equal
// SolveInPlace's on ScatterSparse's vector, bit for bit, repeats or not.
func TestScatterRepeatedIndex(t *testing.T) {
	dense := []complex128{9, 9, 9, 9}
	ScatterSparse([]int{2, 2}, []complex128{1, -1}, dense)
	for i, v := range dense {
		if !sameBits(v, 0) {
			t.Fatalf("self-loop scatter = %v, want the +0 vector (entry %d)", dense, i)
		}
	}
	negZero := complex(math.Copysign(0, -1), math.Copysign(0, -1))
	ScatterSparse([]int{1}, []complex128{negZero}, dense)
	if !sameBits(dense[1], negZero) {
		t.Fatalf("lone −0 scattered as %v", dense[1])
	}
	a, b := testMatrix()
	ls := newTestSolver(t, a, b)
	all := []int{0, 1, 2, 3}
	for _, u := range []struct {
		idx []int
		val []complex128
	}{
		{[]int{2, 2}, []complex128{1, -1}},
		{[]int{1, 3, 1}, []complex128{0.5, -2, 1.25i}},
		{[]int{0}, []complex128{negZero}},
	} {
		want := make([]complex128, 4)
		ScatterSparse(u.idx, u.val, want)
		if err := ls.lu.SolveInPlace(want); err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, 4)
		if err := ls.lu.SolveSparse(u.idx, u.val, 0, all, got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !sameBits(got[i], want[i]) {
				t.Errorf("u %v: z[%d] = %v, full solve %v", u.idx, i, got[i], want[i])
			}
		}
	}
	in, err := ls.SolveIncidenceAt([]int{2, 2}, []complex128{1, -1}, []int{2, 2}, []complex128{1, -1}, 3, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if yk, zk, vy, vz := in.Parts(); !sameBits(zk, 0) || !sameBits(vz, 0) || !sameBits(vy, 0) || yk != ls.Nominal()[3] {
		t.Errorf("self-loop incidence = (%v, %v, %v, %v), want (y[3], 0, 0, 0)", yk, zk, vy, vz)
	}
}
