package numeric

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("got %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("element (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestSetAtAdd(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 1, 3+4i)
	if got := m.At(0, 1); got != 3+4i {
		t.Fatalf("At(0,1) = %v, want 3+4i", got)
	}
	m.Add(0, 1, 1-1i)
	if got := m.At(0, 1); got != 4+3i {
		t.Fatalf("after Add, At(0,1) = %v, want 4+3i", got)
	}
}

func TestIndexPanics(t *testing.T) {
	m := NewMatrix(2, 2)
	cases := []struct{ i, j int }{{-1, 0}, {0, -1}, {2, 0}, {0, 2}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) did not panic", c.i, c.j)
				}
			}()
			m.At(c.i, c.j)
		}()
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]complex128{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v, want 3", m.At(1, 0))
	}
	if _, err := FromRows([][]complex128{{1, 2}, {3}}); !errors.Is(err, ErrShape) {
		t.Fatalf("ragged rows: err = %v, want ErrShape", err)
	}
}

func TestIdentityMul(t *testing.T) {
	a, _ := FromRows([][]complex128{{1, 2i}, {3, 4}})
	id := Identity(2)
	p, err := a.Mul(id)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equalish(a, 1e-15) {
		t.Fatalf("A·I != A:\n%v\n%v", p, a)
	}
}

func TestMulShapes(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := a.Mul(b); !errors.Is(err, ErrShape) {
		t.Fatalf("mismatched mul: err = %v, want ErrShape", err)
	}
}

func TestMulKnown(t *testing.T) {
	a, _ := FromRows([][]complex128{{1, 2}, {3, 4}})
	b, _ := FromRows([][]complex128{{5, 6}, {7, 8}})
	want, _ := FromRows([][]complex128{{19, 22}, {43, 50}})
	got, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equalish(want, 1e-12) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]complex128{{1, 2}, {3, 4}})
	y, err := a.MulVec([]complex128{1, 1i})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 1+2i || y[1] != 3+4i {
		t.Fatalf("got %v, want [1+2i 3+4i]", y)
	}
	if _, err := a.MulVec([]complex128{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("short vector: err = %v, want ErrShape", err)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5 ; x + 3y = 10  =>  x = 1, y = 3
	a, _ := FromRows([][]complex128{{2, 1}, {1, 3}})
	x, err := Solve(a, []complex128{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-1) > 1e-12 || cmplx.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("got %v, want [1 3]", x)
	}
}

func TestSolveComplexSystem(t *testing.T) {
	a, _ := FromRows([][]complex128{{1i, 1}, {1, -1i}})
	// This matrix is singular: row2 = -i * row1.
	if _, err := Solve(a, []complex128{1, 1}); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular complex: err = %v, want ErrSingular", err)
	}

	b, _ := FromRows([][]complex128{{1i, 1}, {1, 1i}})
	x, err := Solve(b, []complex128{1 + 1i, 2i})
	if err != nil {
		t.Fatal(err)
	}
	if r := residual(t, b, x, []complex128{1 + 1i, 2i}); r > 1e-12 {
		t.Fatalf("residual %g too large", r)
	}
}

func TestSolveSingular(t *testing.T) {
	a, _ := FromRows([][]complex128{{1, 2}, {2, 4}})
	_, err := Solve(a, []complex128{1, 2})
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveNonSquare(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := Factor(a); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestSolveRHSLength(t *testing.T) {
	a := Identity(3)
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]complex128{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestDet(t *testing.T) {
	a, _ := FromRows([][]complex128{{4, 3}, {6, 3}})
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Det(); cmplx.Abs(d-(-6)) > 1e-12 {
		t.Fatalf("det = %v, want -6", d)
	}
	id := Identity(5)
	fid, _ := Factor(id)
	if d := fid.Det(); cmplx.Abs(d-1) > 1e-12 {
		t.Fatalf("det(I) = %v, want 1", d)
	}
}

func TestDetPermutationParity(t *testing.T) {
	// A matrix that forces a row swap: det must keep the right sign.
	a, _ := FromRows([][]complex128{{0, 1}, {1, 0}})
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Det(); cmplx.Abs(d-(-1)) > 1e-12 {
		t.Fatalf("det = %v, want -1", d)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Identity(2)
	b := a.Clone()
	b.Set(0, 0, 7)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestZero(t *testing.T) {
	a := Identity(3)
	a.Zero()
	if a.MaxAbs() != 0 {
		t.Fatal("Zero did not clear the matrix")
	}
}

func TestNorms(t *testing.T) {
	a, _ := FromRows([][]complex128{{3i, 4}, {-1, 0}})
	if got := a.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %g, want 4", got)
	}
}

// residual returns ‖A·x − b‖∞, a direct accuracy check for solves.
func residual(t *testing.T, a *Matrix, x, b []complex128) float64 {
	t.Helper()
	ax, err := a.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	max := 0.0
	for i := range ax {
		max = math.Max(max, cmplx.Abs(ax[i]-b[i]))
	}
	return max
}

// randomWellConditioned builds a diagonally dominant random matrix, which is
// guaranteed nonsingular.
func randomWellConditioned(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := complex(rng.Float64()*2-1, rng.Float64()*2-1)
			m.Set(i, j, v)
			rowSum += cmplx.Abs(v)
		}
		m.Set(i, i, complex(rowSum+1, rng.Float64()))
	}
	return m
}

// Property: for random diagonally dominant systems, Solve produces a small
// residual.
func TestSolveResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64, szRaw uint8) bool {
		n := int(szRaw%8) + 1
		r := rand.New(rand.NewSource(seed))
		a := randomWellConditioned(r, n)
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(r.Float64()*2-1, r.Float64()*2-1)
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		return residual(t, a, x, b) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: det(A·B) == det(A)·det(B) for random matrices.
func TestDetMultiplicativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(seed%4+4) % 4
		if n < 2 {
			n = 2
		}
		a := randomWellConditioned(r, n)
		b := randomWellConditioned(r, n)
		ab, err := a.Mul(b)
		if err != nil {
			return false
		}
		fa, err1 := Factor(a)
		fb, err2 := Factor(b)
		fab, err3 := Factor(ab)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		lhs, rhs := fab.Det(), fa.Det()*fb.Det()
		return cmplx.Abs(lhs-rhs) <= 1e-8*(1+cmplx.Abs(rhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFactorDoesNotModifyInput(t *testing.T) {
	a, _ := FromRows([][]complex128{{2, 1}, {1, 3}})
	orig := a.Clone()
	if _, err := Factor(a); err != nil {
		t.Fatal(err)
	}
	if !a.Equalish(orig, 0) {
		t.Fatal("Factor modified its input")
	}
}

func TestFactorInPlaceMatchesFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(8)
		a := randomWellConditioned(rng, n)
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.Float64(), rng.Float64())
		}
		want, err := Solve(a, b)
		if err != nil {
			t.Fatal(err)
		}
		work := a.Clone()
		lu, err := FactorInPlace(work, make([]int, n))
		if err != nil {
			t.Fatal(err)
		}
		got := append([]complex128(nil), b...)
		if err := lu.SolveInPlace(got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > 1e-10 {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
		if len(lu.Pivot()) != n {
			t.Fatal("pivot buffer length")
		}
	}
}

func TestFactorInPlaceErrors(t *testing.T) {
	if _, err := FactorInPlace(NewMatrix(2, 3), nil); !errors.Is(err, ErrShape) {
		t.Error("non-square accepted")
	}
	sing, _ := FromRows([][]complex128{{1, 2}, {2, 4}})
	if _, err := FactorInPlace(sing, nil); !errors.Is(err, ErrSingular) {
		t.Error("singular accepted")
	}
	ok, _ := FromRows([][]complex128{{2, 1}, {1, 3}})
	lu, err := FactorInPlace(ok, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := lu.SolveInPlace([]complex128{1}); !errors.Is(err, ErrShape) {
		t.Error("short rhs accepted")
	}
}
