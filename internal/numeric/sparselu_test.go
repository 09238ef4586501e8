package numeric

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
)

// The tests in this file hold the reach-driven sparse LU to the dense
// FactorInPlace on inputs that leave the diagonally dominant comfort
// zone of sparse_test.go: row swaps on most columns, orders that cross
// the 32- and 64-position words of the reach bitmap, exact and
// one-ulp magnitude ties in the pivot search, magnitudes whose squares
// leave the squared-compare range, and structural entries that are or
// become exact zeros.

// Magnitude-5 values: every pair ties exactly under cmplx.Abs.
var tieValues = []complex128{3 + 4i, 5, -5, 5i, 4 - 3i}

// Values one ulp apart in magnitude or in one component.
var nearTieValues = []complex128{
	5,
	complex(math.Nextafter(5, 6), 0),
	complex(math.Nextafter(5, 4), 0),
	complex(3, math.Nextafter(4, 5)),
	complex(math.Nextafter(3, 2), 4),
	-5,
}

// luCase is a square system given densely plus its structure: an entry
// is structural when its mask bit is set, whatever its value, so explicit
// ±0 entries can be part of the pattern.
type luCase struct {
	dense *Matrix
	mask  []bool
}

// denseCase takes the structure of m from its nonzero entries.
func denseCase(m *Matrix) luCase {
	c := luCase{dense: m, mask: make([]bool, len(m.Data))}
	for i, v := range m.Data {
		c.mask[i] = v != 0
	}
	return c
}

func (c luCase) pattern(t testing.TB) (*Pattern, []complex128) {
	t.Helper()
	n := c.dense.Rows
	var coords []int64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if c.mask[i*n+j] {
				coords = append(coords, PackCoord(i, j))
			}
		}
	}
	p, err := PatternFromCoords(n, coords)
	if err != nil {
		t.Fatalf("PatternFromCoords: %v", err)
	}
	vals := make([]complex128, p.NNZ())
	for i := 0; i < n; i++ {
		for s := p.RowPtr[i]; s < p.RowPtr[i+1]; s++ {
			vals[s] = c.dense.At(i, int(p.ColIdx[s]))
		}
	}
	return p, vals
}

// Generator modes for randNonDominant.
const (
	modeSwaps    = iota // normal values, no dominant diagonal
	modeTies            // exact magnitude ties, power-of-two scaled
	modeNearTies        // one-ulp magnitude near-ties
	modeScaled          // normal values at 1e±150 or 1e±145
	modeCancel          // proportional row segments and explicit ±0 entries
	modeWide            // entry magnitudes anywhere in [1e-100, 1e100]
	numModes
)

// randNonDominant builds an n×n system in the given mode. Every column
// holds the entry of a random permutation, so the structure is never
// trivially singular; each other entry is present with probability
// density.
func randNonDominant(rng *rand.Rand, n int, density float64, mode int) luCase {
	m := NewMatrix(n, n)
	mask := make([]bool, n*n)
	scale := 1.0
	if mode == modeScaled {
		scale = []float64{1e150, 1e-150, 1e145, 1e-145}[rng.Intn(4)]
	}
	value := func() complex128 {
		switch mode {
		case modeTies:
			return tieValues[rng.Intn(len(tieValues))] * complex(math.Ldexp(1, rng.Intn(3)-1), 0)
		case modeNearTies:
			return nearTieValues[rng.Intn(len(nearTieValues))]
		case modeScaled:
			// Entry magnitudes spread over a decade each way, so squares
			// straddle the bounds of the squared-compare range.
			mag := scale * math.Pow(10, 2*rng.Float64()-1)
			return cmplx.Rect(mag, 2*math.Pi*rng.Float64())
		case modeWide:
			return cmplx.Rect(math.Pow(10, 200*rng.Float64()-100), 2*math.Pi*rng.Float64())
		}
		return complex(rng.NormFloat64(), rng.NormFloat64())
	}
	perm := rng.Perm(n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if i == perm[j] || rng.Float64() < density {
				mask[i*n+j] = true
				m.Set(i, j, value())
			}
		}
	}
	if mode == modeCancel && n > 1 {
		// Row b copies 2× row a (exact) on a leading column segment, so
		// eliminating one against the other cancels those entries to
		// exact zeros; a few structural entries hold ±0 outright.
		for pair := 0; pair < 1+n/8; pair++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			for j := 0; j < 1+rng.Intn(n); j++ {
				mask[b*n+j] = mask[a*n+j]
				m.Set(b, j, 2*m.At(a, j))
			}
		}
		for z := 0; z < 1+n/4; z++ {
			i, j := rng.Intn(n), rng.Intn(n)
			mask[i*n+j] = true
			m.Set(i, j, complex(math.Copysign(0, float64(rng.Intn(2))-0.5), 0))
		}
	}
	return luCase{dense: m, mask: mask}
}

func allFinite(v []complex128) bool {
	for _, x := range v {
		if math.IsInf(real(x), 0) || math.IsNaN(real(x)) || math.IsInf(imag(x), 0) || math.IsNaN(imag(x)) {
			return false
		}
	}
	return true
}

// luCheck is what checkAgainstDense saw: whether the system factored,
// and how much work the entry solves it compared left out.
type luCheck struct {
	factored bool
	// skipped counts L columns with entries whose forward products an
	// entry solve did not form; unmarked counts the rows it did not
	// back-substitute.
	skipped, unmarked int
}

// checkAgainstDense factors c both ways and compares verdicts, error
// texts, pivot sequences, Det bits and solution bits, then holds the
// entry solve to the full one (checkEntrySolves). The contract covers
// finite eliminations only; a case whose dense factor or dense solution
// is not finite is reported through outside (t.Fatalf where the
// generator is meant to stay inside the contract, t.Skipf for fuzz
// inputs).
func checkAgainstDense(t *testing.T, label string, c luCase, rng *rand.Rand, outside func(string, ...any)) luCheck {
	t.Helper()
	n := c.dense.Rows
	p, vals := c.pattern(t)
	slu, serr := NewSparseScratch(p).Factor(vals)
	work := c.dense.Clone()
	dlu, derr := FactorInPlace(work, nil)
	if (serr == nil) != (derr == nil) {
		t.Fatalf("%s: verdicts diverge: sparse %v, dense %v", label, serr, derr)
	}
	if serr != nil {
		if serr.Error() != derr.Error() {
			t.Fatalf("%s: error text diverges:\nsparse: %v\ndense:  %v", label, serr, derr)
		}
		return luCheck{}
	}
	if !allFinite(work.Data) {
		outside("%s: dense elimination is not finite; the case is outside the contract", label)
		return luCheck{factored: true}
	}
	for k, dp := range dlu.Pivot() {
		if slu.Pivot()[k] != dp {
			t.Fatalf("%s: pivot[%d] = %d, dense %d", label, k, slu.Pivot()[k], dp)
		}
	}
	if !sameBits(slu.Det(), dlu.Det()) {
		t.Fatalf("%s: Det = %v, dense %v", label, slu.Det(), dlu.Det())
	}
	// b = A·x for an O(1) x keeps the solution finite at any scale.
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b, err := c.dense.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	bd := append([]complex128(nil), b...)
	if err := slu.SolveInPlace(b); err != nil {
		t.Fatalf("%s: sparse solve: %v", label, err)
	}
	if err := dlu.SolveInPlace(bd); err != nil {
		t.Fatalf("%s: dense solve: %v", label, err)
	}
	if !allFinite(bd) {
		outside("%s: dense solution is not finite; the case is outside the contract", label)
		return luCheck{factored: true}
	}
	for i := range b {
		if !sameBits(b[i], bd[i]) {
			t.Fatalf("%s: x[%d] = %v, dense %v", label, i, b[i], bd[i])
		}
	}
	// The draws get their own stream, seeded from x, so the caller's
	// generator runs exactly as it would without them.
	drng := rand.New(rand.NewSource(int64(math.Float64bits(real(x[0])))))
	chk := checkEntrySolves(t, label, slu, drng)
	chk.factored = true
	return chk
}

// checkEntrySolves draws rank-1 incidences — u and v of one or two
// entries each, u often on a row the pivoting moved, and an entry k —
// and requires SolveSparse's z[k], z at v's indices and vᵀz to carry the
// bits of ScatterSparse + SolveInPlace. Draws whose full z is not
// finite are outside the contract and skipped.
func checkEntrySolves(t *testing.T, label string, slu *SparseLU, rng *rand.Rand) luCheck {
	t.Helper()
	n := slu.N()
	var moved []int
	for r, q := range slu.posOf {
		if int(q) != r {
			moved = append(moved, r)
		}
	}
	value := func() complex128 {
		if rng.Intn(2) == 0 {
			return complex(float64(1-2*rng.Intn(2)), 0)
		}
		return complex(rng.NormFloat64(), rng.NormFloat64())
	}
	incidence := func(first int) ([]int, []complex128) {
		idx := []int{first}
		if n > 1 && rng.Intn(3) > 0 {
			second := rng.Intn(n - 1)
			if second >= first {
				second++
			}
			idx = append(idx, second)
		}
		val := make([]complex128, len(idx))
		for i := range val {
			val[i] = value()
		}
		return idx, val
	}
	var chk luCheck
	zf, ze, w := make([]complex128, n), make([]complex128, n), make([]complex128, n)
	for draw := 0; draw < 4; draw++ {
		u0 := rng.Intn(n)
		if len(moved) > 0 && draw%2 == 0 {
			u0 = moved[rng.Intn(len(moved))]
		}
		uIdx, uVal := incidence(u0)
		vIdx, vVal := incidence(rng.Intn(n))
		k := rng.Intn(n)
		ScatterSparse(uIdx, uVal, zf)
		if err := slu.SolveInPlace(zf); err != nil {
			t.Fatal(err)
		}
		if !allFinite(zf) {
			continue
		}
		for i := range ze {
			ze[i] = complex(math.NaN(), 1)
		}
		if err := slu.SolveSparse(uIdx, uVal, k, vIdx, ze); err != nil {
			t.Fatalf("%s: entry solve: %v", label, err)
		}
		for _, i := range append([]int{k}, vIdx...) {
			if !sameBits(ze[i], zf[i]) {
				t.Fatalf("%s: u %v%v: entry solve z[%d] = %v, full %v", label, uIdx, uVal, i, ze[i], zf[i])
			}
		}
		if e, f := DotSparse(vIdx, vVal, ze), DotSparse(vIdx, vVal, zf); !sameBits(e, f) {
			t.Fatalf("%s: u %v%v v %v%v: entry solve vᵀz = %v, full %v", label, uIdx, uVal, vIdx, vVal, e, f)
		}
		// Count the work the entry solve left out, step by step.
		first := slu.scatter(uIdx, uVal, w)
		slu.forward(w, first)
		for j := 0; j < n; j++ {
			if slu.lColPtr[j+1] > slu.lColPtr[j] && (j < first || w[j] == 0) {
				chk.skipped++
			}
		}
		slu.markReads(k, vIdx)
		for _, word := range slu.marks {
			chk.unmarked -= bits.OnesCount32(uint32(word))
		}
		chk.unmarked += n
		clear(slu.marks)
	}
	return chk
}

// TestSparseLUNonDominantMatchesDense drives every generator mode over
// orders up to 100 and requires bit-identity with the dense LU. The
// orders include each side of the 32- and 64-position bitmap words.
func TestSparseLUNonDominantMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sizes := []int{1, 2, 3, 31, 32, 33, 63, 64, 65, 96, 100}
	trials := 400
	if testing.Short() {
		trials = 100
	}
	factored := make([]int, numModes)
	var skipped, unmarked int
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(100)
		if trial < len(sizes)*numModes {
			n = sizes[trial/numModes]
		}
		mode := trial % numModes
		density := 0.02 + 0.3*rng.Float64()
		if n <= 8 {
			density = 0.2 + 0.6*rng.Float64()
		}
		c := randNonDominant(rng, n, density, mode)
		chk := checkAgainstDense(t, fmt.Sprintf("trial %d (n=%d, mode %d)", trial, n, mode), c, rng, t.Fatalf)
		if chk.factored {
			factored[mode]++
		}
		skipped += chk.skipped
		unmarked += chk.unmarked
	}
	// The entry solves must actually have left work out, or their
	// comparison shows nothing.
	t.Logf("entry solves skipped %d L columns and left %d rows unmarked", skipped, unmarked)
	if skipped == 0 || unmarked == 0 {
		t.Errorf("entry solves skipped %d L columns and left %d rows unmarked; want both > 0", skipped, unmarked)
	}
	// Tiny scales and tie-heavy patterns fail the factor on purpose
	// (the error text is compared), but every mode must also reach the
	// solution comparison often enough to mean something.
	for mode, k := range factored {
		if k < trials/numModes/4 {
			t.Errorf("mode %d factored only %d of %d systems", mode, k, trials/numModes)
		}
	}
}

// TestSparseLUPivotTies pins the pivot search's tie and near-tie
// decisions on single columns, where no update blurs them: the first of
// equal magnitudes wins, and a one-ulp larger magnitude beats an
// earlier one.
func TestSparseLUPivotTies(t *testing.T) {
	up := math.Nextafter(5, 6)
	cases := []struct {
		name string
		col  []complex128
		want int
	}{
		{"exact ties", tieValues, 0},
		{"tie after zero", []complex128{0, 5i, -5, 3 + 4i}, 1},
		{"one ulp up wins", []complex128{5, 3 + 4i, complex(up, 0), -5}, 2},
		{"one ulp in a component", []complex128{3 + 4i, complex(3, math.Nextafter(4, 5))}, 1},
		{"huge ties", []complex128{3e150 + 4e150i, 5e150, complex(5e150*(1+1e-15), 0)}, 2},
		{"tiny over tolerance", []complex128{1e-13 * (3 + 4i), 5e-13, 2e-13}, 0},
	}
	for _, tc := range cases {
		n := len(tc.col)
		m := NewMatrix(n, n)
		mask := make([]bool, n*n)
		for i, v := range tc.col {
			m.Set(i, 0, v)
			mask[i*n] = true
		}
		// Identity on the remaining columns, so the first pivot decides
		// the permutation and the rest are unit pivots.
		for j := 1; j < n; j++ {
			m.Set(j, j, 1)
			mask[j*n+j] = true
		}
		if tc.col[0] == 0 {
			m.Set(0, n-1, 1)
			mask[n-1] = true
		}
		c := luCase{dense: m, mask: mask}
		checkAgainstDense(t, tc.name, c, rand.New(rand.NewSource(1)), t.Fatalf)
		p, vals := c.pattern(t)
		slu, err := NewSparseScratch(p).Factor(vals)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := slu.Pivot()[0]; got != tc.want {
			t.Errorf("%s: pivot[0] = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestSparseLUSingularTextAtTolerance checks that pivots just under,
// at and over PivotTolerance, including two whose squared magnitude and
// Hypot fall on opposite sides of it, and an all-zero column, give the
// dense verdict and error text.
func TestSparseLUSingularTextAtTolerance(t *testing.T) {
	for _, v := range []complex128{
		0,
		complex(math.Nextafter(PivotTolerance, 0), 0),
		PivotTolerance,
		complex(0, math.Nextafter(PivotTolerance, 1)),
		// Squared magnitude and Hypot disagree about the tolerance here.
		2.8000000000000004e-14 + 9.6e-14i,
		5e-14 + 8.660254037844387e-14i,
		1e-150,
		1e-300 + 1e-300i,
	} {
		m := NewMatrix(3, 3)
		mask := make([]bool, 9)
		for i := 0; i < 3; i++ {
			m.Set(i, i, 1)
			mask[i*3+i] = true
		}
		m.Set(1, 1, v)
		m.Set(2, 1, v/2)
		mask[2*3+1] = true
		checkAgainstDense(t, fmt.Sprintf("pivot %g", cmplx.Abs(v)), luCase{dense: m, mask: mask}, rand.New(rand.NewSource(2)), t.Fatalf)
	}
}

// TestChainBandMatchesDense holds the benchmark systems to the dense LU
// and checks that their zero-diagonal opamp rows really force row swaps.
func TestChainBandMatchesDense(t *testing.T) {
	for _, n := range benchOrders {
		p, vals := chainBand(t, n)
		m := NewMatrix(n, n)
		if err := p.ScatterInto(m, vals); err != nil {
			t.Fatal(err)
		}
		c := denseCase(m)
		label := fmt.Sprintf("n=%d", n)
		chk := checkAgainstDense(t, label, c, rand.New(rand.NewSource(3)), t.Fatalf)
		if !chk.factored {
			t.Fatalf("%s: benchmark system is singular", label)
		}
		if chk.skipped == 0 || chk.unmarked == 0 {
			t.Errorf("%s: entry solves skipped %d L columns and left %d rows unmarked; want both > 0", label, chk.skipped, chk.unmarked)
		}
		slu, err := NewSparseScratch(p).Factor(vals)
		if err != nil {
			t.Fatal(err)
		}
		swaps := 0
		for k, pk := range slu.Pivot() {
			if pk != k {
				swaps++
			}
		}
		if swaps == 0 {
			t.Errorf("%s: no row swaps", label)
		}
	}
}
