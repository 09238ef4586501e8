package numeric

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
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
	var coords []int64
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != 0 {
				coords = append(coords, PackCoord(i, j))
			}
		}
	}
	p, err := PatternFromCoords(m.Rows, coords)
	if err != nil {
		t.Fatalf("PatternFromCoords: %v", err)
	}
	vals := make([]complex128, p.NNZ())
	for i := 0; i < p.N; i++ {
		for s := p.RowPtr[i]; s < p.RowPtr[i+1]; s++ {
			vals[s] = m.At(i, int(p.ColIdx[s]))
		}
	}
	return p, vals
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
		dense := randSparse(rng, n, density)
		p, vals := patternOf(t, dense)

		scratch := NewSparseScratch(p)
		slu, err := scratch.Factor(vals)
		if err != nil {
			t.Fatalf("trial %d: sparse factor: %v", trial, err)
		}
		work := dense.Clone()
		dlu, err := FactorInPlace(work, nil)
		if err != nil {
			t.Fatalf("trial %d: dense factor: %v", trial, err)
		}
		for k, dp := range dlu.Pivot() {
			if slu.Pivot()[k] != dp {
				t.Fatalf("trial %d: pivot[%d] = %d, dense %d", trial, k, slu.Pivot()[k], dp)
			}
		}
		if !sameBits(slu.Det(), dlu.Det()) {
			t.Fatalf("trial %d: Det = %v, dense %v", trial, slu.Det(), dlu.Det())
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		bs := append([]complex128(nil), b...)
		bd := append([]complex128(nil), b...)
		if err := slu.SolveInPlace(bs); err != nil {
			t.Fatalf("trial %d: sparse solve: %v", trial, err)
		}
		if err := dlu.SolveInPlace(bd); err != nil {
			t.Fatalf("trial %d: dense solve: %v", trial, err)
		}
		for i := range bs {
			if !sameBits(bs[i], bd[i]) {
				t.Fatalf("trial %d: x[%d] = %v, dense %v (Δ=%g)", trial, i, bs[i], bd[i],
					math.Abs(real(bs[i])-real(bd[i]))+math.Abs(imag(bs[i])-imag(bd[i])))
			}
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
	p, vals := patternOf(t, dense)
	slu, err := NewSparseScratch(p).Factor(vals)
	if err != nil {
		t.Fatal(err)
	}
	dlu, err := FactorInPlace(dense.Clone(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(slu.Det(), dlu.Det()) {
		t.Fatalf("Det = %v, dense %v", slu.Det(), dlu.Det())
	}
	b := []complex128{1, 2, 3}
	bs := append([]complex128(nil), b...)
	if err := slu.SolveInPlace(bs); err != nil {
		t.Fatal(err)
	}
	if err := dlu.SolveInPlace(b); err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if !sameBits(bs[i], b[i]) {
			t.Fatalf("x[%d] = %v, dense %v", i, bs[i], b[i])
		}
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
	p, vals := patternOf(t, dense)
	_, serr := NewSparseScratch(p).Factor(vals)
	_, derr := FactorInPlace(dense.Clone(), nil)
	if !errors.Is(serr, ErrSingular) {
		t.Fatalf("sparse err = %v, want ErrSingular", serr)
	}
	if derr == nil || serr.Error() != derr.Error() {
		t.Fatalf("error text diverges:\nsparse: %v\ndense:  %v", serr, derr)
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

// TestSparseLUDetach checks that a detached factor survives the scratch
// being refactored with different values, and that arena growth leaves
// earlier detached factors intact.
func TestSparseLUDetach(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dense := randSparse(rng, 8, 0.35)
	p, vals := patternOf(t, dense)
	scratch := NewSparseScratch(p)
	slu, err := scratch.Factor(vals)
	if err != nil {
		t.Fatal(err)
	}
	var ints []int32
	var cplx []complex128
	var pivs []int
	kept := slu.Detach(&ints, &cplx, &pivs)

	// Clobber the scratch with a different system.
	vals2 := append([]complex128(nil), vals...)
	for i := range vals2 {
		vals2[i] *= 3
	}
	if _, err := scratch.Factor(vals2); err != nil {
		t.Fatal(err)
	}
	// Grow the arenas past their caps with further detaches.
	for i := 0; i < 8; i++ {
		slu2, err := scratch.Factor(vals2)
		if err != nil {
			t.Fatal(err)
		}
		slu2.Detach(&ints, &cplx, &pivs)
	}

	dlu, err := FactorInPlace(dense.Clone(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]complex128, 8)
	for i := range b {
		b[i] = complex(float64(i)+1, -float64(i))
	}
	bk := append([]complex128(nil), b...)
	if err := kept.SolveInPlace(bk); err != nil {
		t.Fatal(err)
	}
	if err := dlu.SolveInPlace(b); err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if !sameBits(bk[i], b[i]) {
			t.Fatalf("detached x[%d] = %v, dense %v", i, bk[i], b[i])
		}
	}
	if !sameBits(kept.Det(), dlu.Det()) {
		t.Fatalf("detached Det = %v, dense %v", kept.Det(), dlu.Det())
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
// and on diagonally-dominant inputs the sparse LU must agree with the
// dense LU bit-for-bit.
func FuzzCSR(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(128))
	f.Add(int64(99), uint8(9), uint8(40))
	f.Add(int64(-7), uint8(1), uint8(255))
	f.Add(int64(1234567), uint8(13), uint8(10))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, densityRaw uint8) {
		n := 1 + int(nRaw)%14
		density := float64(densityRaw) / 255
		rng := rand.New(rand.NewSource(seed))
		dense := randSparse(rng, n, density)
		p, vals := patternOf(t, dense)

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
				if (slot >= 0) != (dense.At(i, j) != 0) {
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
		// Factorization parity on the (diagonally-dominant) system.
		slu, serr := NewSparseScratch(p).Factor(vals)
		dlu, derr := FactorInPlace(dense.Clone(), nil)
		if (serr == nil) != (derr == nil) {
			t.Fatalf("verdicts diverge: sparse %v, dense %v", serr, derr)
		}
		if serr != nil {
			if serr.Error() != derr.Error() {
				t.Fatalf("error text diverges: sparse %q, dense %q", serr, derr)
			}
			return
		}
		if !sameBits(slu.Det(), dlu.Det()) {
			t.Fatalf("Det = %v, dense %v", slu.Det(), dlu.Det())
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		bd := append([]complex128(nil), b...)
		if err := slu.SolveInPlace(b); err != nil {
			t.Fatal(err)
		}
		if err := dlu.SolveInPlace(bd); err != nil {
			t.Fatal(err)
		}
		for i := range b {
			if !sameBits(b[i], bd[i]) {
				t.Fatalf("x[%d] = %v, dense %v", i, b[i], bd[i])
			}
		}
	})
}

// TestFuzzCSRSmoke keeps the fuzz body exercised in plain `go test`
// runs (the corpus seeds run there, but a few extra deterministic
// combinations cost nothing).
func TestFuzzCSRSmoke(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(seed)%11
		dense := randSparse(rng, n, 0.05+0.1*float64(seed))
		p, vals := patternOf(t, dense)
		slu, err := NewSparseScratch(p).Factor(vals)
		if err != nil {
			if !strings.Contains(err.Error(), "singular") {
				t.Fatalf("seed %d: %v", seed, err)
			}
			continue
		}
		dlu, err := FactorInPlace(dense.Clone(), nil)
		if err != nil {
			t.Fatalf("seed %d: dense disagrees: %v", seed, err)
		}
		if !sameBits(slu.Det(), dlu.Det()) {
			t.Fatalf("seed %d: Det %v vs %v", seed, slu.Det(), dlu.Det())
		}
	}
}
