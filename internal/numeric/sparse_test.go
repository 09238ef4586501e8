package numeric

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// sameBits reports bit-level equality of two complex values, which is
// stricter than == (it distinguishes -0 from +0). The sparse layout
// promises bit-identical results, so the tests hold it to that.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// patternOf extracts the structural nonzeros of a dense matrix into a
// Pattern plus the matching CSR value array.
func patternOf(t testing.TB, m *Matrix) (*Pattern, []complex128) {
	t.Helper()
	return denseCase(m).pattern(t)
}

// randSparse builds a random diagonally-dominant sparse matrix: always
// structurally nonzero on the diagonal, each off-diagonal present with
// probability density.
func randSparse(rng *rand.Rand, n int, density float64) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if rng.Float64() < density {
				v := complex(rng.NormFloat64(), rng.NormFloat64())
				m.Set(i, j, v)
				rowSum += math.Hypot(real(v), imag(v))
			}
		}
		m.Set(i, i, complex(rowSum+1+rng.Float64(), rng.NormFloat64()))
	}
	return m
}

func TestPatternFromCoords(t *testing.T) {
	coords := []int64{
		PackCoord(1, 1), PackCoord(0, 0), PackCoord(0, 2),
		PackCoord(2, 1), PackCoord(0, 0), // duplicate
		PackCoord(2, 2),
	}
	p, err := PatternFromCoords(3, coords)
	if err != nil {
		t.Fatal(err)
	}
	if p.NNZ() != 5 {
		t.Fatalf("NNZ = %d, want 5 (duplicate not merged?)", p.NNZ())
	}
	wantRowPtr := []int32{0, 2, 3, 5}
	for i, w := range wantRowPtr {
		if p.RowPtr[i] != w {
			t.Fatalf("RowPtr = %v, want %v", p.RowPtr, wantRowPtr)
		}
	}
	wantColIdx := []int32{0, 2, 1, 1, 2}
	for s, w := range wantColIdx {
		if p.ColIdx[s] != w {
			t.Fatalf("ColIdx = %v, want %v", p.ColIdx, wantColIdx)
		}
	}
	// CSC view: column 0 has row 0; column 1 rows 1,2; column 2 rows 0,2.
	wantColPtr := []int32{0, 1, 3, 5}
	wantRowInd := []int32{0, 1, 2, 0, 2}
	for i, w := range wantColPtr {
		if p.ColPtr[i] != w {
			t.Fatalf("ColPtr = %v, want %v", p.ColPtr, wantColPtr)
		}
	}
	for s, w := range wantRowInd {
		if p.RowInd[s] != w {
			t.Fatalf("RowInd = %v, want %v", p.RowInd, wantRowInd)
		}
	}
	// CSlot must map every CSC entry back to the CSR slot of the same
	// coordinate.
	for j := 0; j < p.N; j++ {
		for tt := p.ColPtr[j]; tt < p.ColPtr[j+1]; tt++ {
			i := int(p.RowInd[tt])
			if got := int(p.CSlot[tt]); got != p.SlotOf(i, j) {
				t.Fatalf("CSlot(%d,%d) = %d, want %d", i, j, got, p.SlotOf(i, j))
			}
		}
	}
	if got := p.SlotOf(1, 0); got != -1 {
		t.Fatalf("SlotOf(1,0) = %d, want -1", got)
	}
	if _, err := PatternFromCoords(2, []int64{PackCoord(0, 2)}); !errors.Is(err, ErrShape) {
		t.Fatalf("out-of-range coord: err = %v, want ErrShape", err)
	}
}

func TestCSRValuesAdd(t *testing.T) {
	p, _ := PatternFromCoords(2, []int64{PackCoord(0, 0), PackCoord(1, 1), PackCoord(0, 1)})
	cv := CSRValues{P: p, Vals: make([]complex128, p.NNZ())}
	cv.Add(0, 1, 2i)
	cv.Add(0, 1, 1)
	if got := cv.Vals[p.SlotOf(0, 1)]; got != 1+2i {
		t.Fatalf("accumulated value = %v, want 1+2i", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add outside pattern did not panic")
		}
	}()
	cv.Add(1, 0, 1)
}

func TestScatterInto(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dense := randSparse(rng, 6, 0.4)
	p, vals := patternOf(t, dense)
	got := NewMatrix(6, 6)
	// Pre-soil the target: ScatterInto must zero it first.
	got.Set(3, 4, 99)
	if err := p.ScatterInto(got, vals); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if !sameBits(got.At(i, j), dense.At(i, j)) {
				t.Fatalf("scatter (%d,%d) = %v, want %v", i, j, got.At(i, j), dense.At(i, j))
			}
		}
	}
	if err := p.ScatterInto(NewMatrix(5, 5), vals); !errors.Is(err, ErrShape) {
		t.Fatalf("shape mismatch: err = %v, want ErrShape", err)
	}
}

// TestSparseLUMatchesDenseExact is the core bit-identity property: over
// random diagonally-dominant systems of varying size and density, the
// sparse factorization must reproduce the dense FactorInPlace exactly —
// same pivot sequence, bit-identical determinant, and bit-identical
// solutions.
func TestSparseLUMatchesDenseExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(14)
		density := 0.1 + 0.8*rng.Float64()
		c := denseCase(randSparse(rng, n, density))
		if !checkAgainstDense(t, fmt.Sprintf("trial %d", trial), c, rng, t.Fatalf).factored {
			t.Fatalf("trial %d: diagonally dominant system reported singular", trial)
		}
	}
}

// TestSparseLUPivoting forces row swaps (zero diagonal) and checks the
// permutation logic against dense.
func TestSparseLUPivoting(t *testing.T) {
	// Anti-diagonal with an extra entry: every step must pivot.
	dense, err := FromRows([][]complex128{
		{0, 0, 2},
		{0, 3, 1i},
		{5, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !checkAgainstDense(t, "anti-diagonal", denseCase(dense), rand.New(rand.NewSource(1)), t.Fatalf).factored {
		t.Fatal("anti-diagonal system reported singular")
	}
}

// TestSparseLUSingularMatchesDense pins the error contract: same
// sentinel, same pivot magnitude, same column index as the dense path.
func TestSparseLUSingularMatchesDense(t *testing.T) {
	dense, err := FromRows([][]complex128{
		{1, 2, 0},
		{2, 4, 0}, // row 1 = 2·row 0 → singular at column 1
		{0, 1, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := denseCase(dense)
	if checkAgainstDense(t, "rank-deficient", c, rand.New(rand.NewSource(1)), t.Fatalf).factored {
		t.Fatal("rank-deficient system factored")
	}
	p, vals := c.pattern(t)
	if _, err := NewSparseScratch(p).Factor(vals); !errors.Is(err, ErrSingular) {
		t.Fatalf("sparse err = %v, want ErrSingular", err)
	}
}

func TestSparseLUValueCountMismatch(t *testing.T) {
	p, _ := PatternFromCoords(2, []int64{PackCoord(0, 0), PackCoord(1, 1)})
	if _, err := NewSparseScratch(p).Factor(make([]complex128, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestSparseLUSolveShape(t *testing.T) {
	p, _ := PatternFromCoords(2, []int64{PackCoord(0, 0), PackCoord(1, 1)})
	slu, err := NewSparseScratch(p).Factor([]complex128{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := slu.SolveInPlace(make([]complex128, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

// TestSparseScratchReuseAllocFree: after the first factorization, the
// factor+solve cycle must not allocate — the allocation-free-after-warmup
// contract the sweep hot path depends on.
func TestSparseScratchReuseAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dense := randSparse(rng, 10, 0.3)
	p, vals := patternOf(t, dense)
	scratch := NewSparseScratch(p)
	b := make([]complex128, 10)
	if _, err := scratch.Factor(vals); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		slu, err := scratch.Factor(vals)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b {
			b[i] = complex(float64(i), 1)
		}
		if err := slu.SolveInPlace(b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("factor+solve allocated %v times per run after warmup, want 0", allocs)
	}
}

func TestDotScatterSparse(t *testing.T) {
	dense := []complex128{1, 2, 3, 4}
	idx := []int{0, 3}
	val := []complex128{2i, -1}
	if got := DotSparse(idx, val, dense); got != 2i*1+(-1)*4 {
		t.Fatalf("DotSparse = %v", got)
	}
	// Explicit zeros are skipped, not multiplied.
	if got := DotSparse([]int{1, 2}, []complex128{0, 5}, dense); got != 15 {
		t.Fatalf("DotSparse with zero entry = %v, want 15", got)
	}
	out := []complex128{9, 9, 9, 9}
	ScatterSparse(idx, val, out)
	want := []complex128{2i, 0, 0, -1}
	for i := range out {
		if !sameBits(out[i], want[i]) {
			t.Fatalf("ScatterSparse = %v, want %v", out, want)
		}
	}
}

// TestSolveRankOneSparseBackends pins the sparse-backed Sherman–Morrison
// update against two dense references: bitwise against the same identity
// evaluated over the dense LU (dense and sparse triangular solves are
// bit-identical, and the two-term dot products cannot reorder), and
// within rounding against numeric.Solve on the perturbed matrix.
func TestSolveRankOneSparseBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dense := randSparse(rng, 9, 0.4)
	p, vals := patternOf(t, dense)
	n := 9
	b := make([]complex128, n)
	for i := range b {
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	slu, err := NewSparseScratch(p).Factor(vals)
	if err != nil {
		t.Fatal(err)
	}
	ys := append([]complex128(nil), b...)
	if err := slu.SolveInPlace(ys); err != nil {
		t.Fatal(err)
	}
	solver, err := NewLowRankSolver(slu, ys)
	if err != nil {
		t.Fatal(err)
	}
	uIdx, uVal := []int{2, 6}, []complex128{1, -1}
	vIdx, vVal := []int{2, 6}, []complex128{1, -1}
	s := complex(0.37, 0.11)
	x := make([]complex128, n)
	if err := solver.SolveRankOneSparse(s, uIdx, uVal, vIdx, vVal, x); err != nil {
		t.Fatal(err)
	}

	// The identity over the dense LU, operation for operation.
	dlu, err := FactorInPlace(dense.Clone(), nil)
	if err != nil {
		t.Fatal(err)
	}
	y := append([]complex128(nil), b...)
	z := make([]complex128, n)
	z[2], z[6] = 1, -1
	if err := dlu.SolveInPlace(y); err != nil {
		t.Fatal(err)
	}
	if err := dlu.SolveInPlace(z); err != nil {
		t.Fatal(err)
	}
	vy := DotSparse(vIdx, vVal, y)
	vz := DotSparse(vIdx, vVal, z)
	c := s * vy / (1 + s*vz)
	for i := range x {
		if want := y[i] - c*z[i]; !sameBits(x[i], want) {
			t.Fatalf("x[%d] = %v, dense-LU identity %v", i, x[i], want)
		}
	}

	// The perturbed matrix solved from scratch.
	pert := dense.Clone()
	for ki, i := range uIdx {
		for kj, j := range vIdx {
			pert.Add(i, j, s*uVal[ki]*vVal[kj])
		}
	}
	direct, err := Solve(pert, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if d := cmplx.Abs(x[i] - direct[i]); d > 1e-12*(1+cmplx.Abs(direct[i])) {
			t.Fatalf("x[%d] = %v, numeric.Solve %v (|Δ| = %g)", i, x[i], direct[i], d)
		}
	}

	// Out-of-range sparse operand indices are shape errors.
	if err := solver.SolveRankOneSparse(s, []int{n}, []complex128{1}, vIdx, vVal, x); !errors.Is(err, ErrShape) {
		t.Fatalf("u index out of range: err = %v, want ErrShape", err)
	}
}

// FuzzCSR exercises the symbolic layer and the factorization against
// the dense reference on fuzz-chosen patterns and values: the dense↔CSR
// round-trip must be exact, pattern writes must stay in their slots,
// and the sparse LU must agree with the dense LU bit-for-bit. Mode 0
// draws diagonally dominant systems; the other modes draw the
// non-dominant systems of randNonDominant whose values stay within
// [1e-100, 1e100] (row swaps, ties, near-ties, cancellations, wide
// magnitudes). Orders reach 96, three words of the reach bitmap.
func FuzzCSR(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(128), uint8(0))
	f.Add(int64(99), uint8(9), uint8(40), uint8(0))
	f.Add(int64(-7), uint8(1), uint8(255), uint8(0))
	f.Add(int64(1234567), uint8(13), uint8(10), uint8(0))
	f.Add(int64(5), uint8(70), uint8(20), uint8(1))
	f.Add(int64(6), uint8(33), uint8(60), uint8(2))
	f.Add(int64(7), uint8(64), uint8(30), uint8(3))
	f.Add(int64(8), uint8(95), uint8(10), uint8(4))
	f.Add(int64(9), uint8(31), uint8(90), uint8(5))
	fuzzModes := []int{-1, modeSwaps, modeTies, modeNearTies, modeCancel, modeWide}
	f.Fuzz(func(t *testing.T, seed int64, nRaw, densityRaw, modeRaw uint8) {
		n := 1 + int(nRaw)%96
		density := float64(densityRaw) / 255
		if n > 14 {
			// At most ~20 entries a row past n = 14: MNA-like, and cheap
			// for the quadratic slot checks below.
			density *= 21 / float64(n+7)
		}
		rng := rand.New(rand.NewSource(seed))
		var c luCase
		if mode := fuzzModes[int(modeRaw)%len(fuzzModes)]; mode < 0 {
			c = denseCase(randSparse(rng, n, density))
		} else {
			c = randNonDominant(rng, n, density, mode)
		}
		dense := c.dense
		p, vals := c.pattern(t)

		// Round-trip dense → CSR → dense.
		back := NewMatrix(n, n)
		if err := p.ScatterInto(back, vals); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !sameBits(back.At(i, j), dense.At(i, j)) {
					t.Fatalf("round-trip (%d,%d) = %v, want %v", i, j, back.At(i, j), dense.At(i, j))
				}
			}
		}
		// Slot index is total and in-bounds exactly on the pattern, and
		// CSRValues.Add writes only its own slot.
		cv := CSRValues{P: p, Vals: make([]complex128, p.NNZ())}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				slot := p.SlotOf(i, j)
				if (slot >= 0) != c.mask[i*n+j] {
					t.Fatalf("SlotOf(%d,%d) = %d disagrees with structure", i, j, slot)
				}
				if slot < 0 {
					continue
				}
				before := append([]complex128(nil), cv.Vals...)
				cv.Add(i, j, 1+1i)
				for s := range cv.Vals {
					want := before[s]
					if s == slot {
						want += 1 + 1i
					}
					if cv.Vals[s] != want {
						t.Fatalf("Add(%d,%d) leaked into slot %d", i, j, s)
					}
				}
			}
		}
		// Factorization parity. The contract covers finite eliminations
		// only; an input whose dense elimination or solve overflows is
		// outside it and skipped.
		checkAgainstDense(t, "fuzz", c, rng, t.Skipf)
	})
}

// TestFuzzCSRSmoke keeps the fuzz body exercised in plain `go test`
// runs (the corpus seeds run there, but a few extra deterministic
// combinations cost nothing).
func TestFuzzCSRSmoke(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(seed)%11
		c := denseCase(randSparse(rng, n, 0.05+0.1*float64(seed)))
		checkAgainstDense(t, fmt.Sprintf("seed %d", seed), c, rng, t.Fatalf)
	}
}
