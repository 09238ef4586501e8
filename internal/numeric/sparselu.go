package numeric

import (
	"fmt"
	"math/bits"
	"math/cmplx"
	"slices"
)

// SparseLU is the LU factorization of a sparse complex matrix with
// partial pivoting, produced by SparseScratch.Factor. L is stored by
// columns (unit diagonal implicit, row indices remapped to final pivot
// positions) and U by rows (strict upper triangle, columns ascending,
// diagonal separate) — exactly the orientations the bit-compatible
// substitutions need.
//
// Compatibility contract: for the same input values, a SparseLU and the
// dense FactorInPlace produce bit-identical solutions, determinants and
// singularity verdicts, provided the elimination and the substitutions
// stay finite. This holds by construction, not by tolerance: the
// elimination performs the same floating-point operations in the same
// order — the pivot search makes the same first-strictly-greatest
// choice under the same tolerance, each entry receives its updates in
// ascending elimination order (one subtraction per step, same as the
// dense right-looking loop), and the substitutions accumulate each
// row's sum in ascending column order before a single subtract, as the
// dense solver does. The operations the sparse path skips involve
// entries that are exact +0 in the dense working matrix, and adding a
// signed-zero product to a finite accumulator never changes its bits.
// Finiteness is the precondition: once a value overflows to Inf, the
// dense loop's Inf·0 is NaN in a product the sparse loop never forms.
// The MNA oracle tests lean on this: the CSR solve path and a dense
// reference assembly agree bit-for-bit, not merely within a tolerance.
//
// A factor returned by Factor aliases its scratch and is valid only
// until the scratch factors again. SolveInPlace uses a scratch buffer
// inside the factor (SolveSparse also its marks), so a single factor
// must not be solved from multiple goroutines at once — the
// one-workspace-per-worker discipline every solve path follows.
type SparseLU struct {
	n     int
	pivot []int // row-swap sequence, same semantics as the dense LU
	sign  int

	// L by columns: column j's entries are lIdx/lVal[lColPtr[j]:lColPtr[j+1]],
	// rows in final (post-pivot) positions.
	lColPtr []int32
	lIdx    []int32
	lVal    []complex128

	// U by rows: row i's strict-upper entries are uIdx/uVal[uRowPtr[i]:uRowPtr[i+1]],
	// column indices ascending; diag[i] is U's diagonal.
	uRowPtr []int32
	uIdx    []int32
	uVal    []complex128
	diag    []complex128

	acc   []complex128 // forward-substitution accumulator, length n
	posOf []int32      // original row → final position
	marks bitmap       // SolveSparse's row marks, clear between calls
}

// N returns the dimension of the factored system.
func (f *SparseLU) N() int { return f.n }

// Pivot exposes the row-swap sequence (same semantics as LU.Pivot).
func (f *SparseLU) Pivot() []int { return f.pivot }

// Det returns the determinant: the pivot sign times the product of U's
// diagonal, multiplied in elimination order exactly as LU.Det does.
func (f *SparseLU) Det() complex128 {
	d := complex(float64(f.sign), 0)
	for i := 0; i < f.n; i++ {
		d *= f.diag[i]
	}
	return d
}

// SolveInPlace solves A·x = b writing the solution over b, with no
// allocations and bit-identical results to the dense LU.SolveInPlace.
func (f *SparseLU) SolveInPlace(b []complex128) error {
	n := f.n
	if len(b) != n {
		return fmt.Errorf("%w: rhs length %d for order %d", ErrShape, len(b), n)
	}
	for k := 0; k < n; k++ {
		if p := f.pivot[k]; p != k {
			b[k], b[p] = b[p], b[k]
		}
	}
	f.forward(b, 0)
	for i := n - 1; i >= 0; i-- {
		f.backRow(b, i)
	}
	return nil
}

// SolveSparse solves A·z = u for a u given by its entries (idx, val) —
// a rank-1 patch's incidence vector holds at most two — and works out
// only the entries it is asked for: z[k] and z[i] for every i in at
// carry the bits SolveInPlace gives them on ScatterSparse's u, and
// every other entry of z is left unspecified. It costs the arithmetic
// those entries need, not the order:
//
//   - u goes straight to its pivoted positions, with no swap loop;
//   - forward substitution starts at u's first position and skips
//     every column whose value is exactly ±0;
//   - back substitution runs only on the rows the wanted entries read,
//     in SolveInPlace's order and with its operations.
//
// The bits hold for the reasons the SparseLU contract gives: the
// skipped forward work only adds ±0 products to accumulators that start
// at +0 and so never become −0 (given a finite factor), and a row left
// out of the back substitution is never read by one that is kept.
func (f *SparseLU) SolveSparse(idx []int, val []complex128, k int, at []int, z []complex128) error {
	n := f.n
	if len(z) != n {
		return fmt.Errorf("%w: rhs length %d for order %d", ErrShape, len(z), n)
	}
	if err := checkIndices("u", idx, n); err != nil {
		return err
	}
	if k < 0 || k >= n {
		return fmt.Errorf("%w: entry %d outside order %d", ErrShape, k, n)
	}
	if err := checkIndices("entry", at, n); err != nil {
		return err
	}
	f.forward(z, f.scatter(idx, val, z))
	f.markReads(k, at)
	f.backMarked(z)
	return nil
}

// checkIndices reports the first index outside [0, n) as ErrShape.
func checkIndices(what string, idx []int, n int) error {
	for _, i := range idx {
		if i < 0 || i >= n {
			return fmt.Errorf("%w: %s index %d outside order %d", ErrShape, what, i, n)
		}
	}
	return nil
}

// scatter writes u's entries over a zeroed b at the positions the row
// swaps carry them to — where SolveInPlace's swap loop would move
// ScatterSparse's vector, with its rule for a repeated index — and
// returns the first position written (n for an empty u).
func (f *SparseLU) scatter(idx []int, val, b []complex128) int {
	clear(b)
	first := f.n
	for t, i := range idx {
		q := int(f.posOf[i])
		if slices.Contains(idx[:t], i) {
			b[q] += val[t]
		} else {
			b[q] = val[t]
		}
		first = min(first, q)
	}
	return first
}

// forward runs the forward substitution over b from position from on;
// b[:from] must be +0, as the full substitution would leave it. L is
// column-oriented with a deferred-subtract accumulator: acc[i] collects
// Σ_{j<i} L[i][j]·b[j]. Walking columns ascending adds each row's
// products in ascending j — the dense row loop's accumulation order —
// and each row subtracts its sum exactly once, when it finalizes. A
// column whose value is exactly ±0 is skipped: its products are ±0, and
// adding ±0 to a finite accumulator that starts at +0 (and so is never
// −0) leaves its bits unchanged.
func (f *SparseLU) forward(b []complex128, from int) {
	acc := f.acc
	clear(acc[from:])
	for j := from; j < f.n; j++ {
		bj := b[j] - acc[j]
		b[j] = bj
		if bj == 0 {
			continue
		}
		for t := f.lColPtr[j]; t < f.lColPtr[j+1]; t++ {
			acc[f.lIdx[t]] += f.lVal[t] * bj
		}
	}
}

// backRow finalizes row i of the back substitution, U row-oriented:
// ascending-column accumulation, one subtract, then the divide — the
// dense loop verbatim.
func (f *SparseLU) backRow(b []complex128, i int) {
	var s complex128
	for t := f.uRowPtr[i]; t < f.uRowPtr[i+1]; t++ {
		s += f.uVal[t] * b[f.uIdx[t]]
	}
	b[i] = (b[i] - s) / f.diag[i]
}

// markReads marks row k, the rows in at, and every row their back
// substitution reads: the closure of those seeds over U's row pattern.
// Row i of U holds only columns above i, so one ascending walk meets
// every row it marks.
func (f *SparseLU) markReads(k int, at []int) {
	m := f.marks
	m.set(int32(k))
	for _, i := range at {
		m.set(int32(i))
	}
	for i := m.next(0); i < f.n; i = m.next(i + 1) {
		for t := f.uRowPtr[i]; t < f.uRowPtr[i+1]; t++ {
			m.set(f.uIdx[t])
		}
	}
}

// backMarked back-substitutes the marked rows, descending as
// SolveInPlace does, then clears the marks.
func (f *SparseLU) backMarked(b []complex128) {
	m := f.marks
	for i := m.prev(f.n - 1); i >= 0; i = m.prev(i - 1) {
		f.backRow(b, i)
	}
	clear(m)
}

// SparseScratch is the reusable working state of the left-looking
// sparse factorization: the dense column scatter, pivot-order tracking,
// the interleaved column-phase L/U store and the row-phase U transpose.
// One scratch serves one worker; once its buffers reach their high-water
// sizes, factor and solve allocate nothing.
type SparseScratch struct {
	pat *Pattern

	x     []complex128 // dense column scatter, indexed by original row (n)
	diag  []complex128 // U diagonal in elimination order (n)
	acc   []complex128 // solve accumulator handed to the factor (n)
	rowAt []int32      // position → original row, tracking dense row swaps
	posOf []int32      // original row → position
	cnt   []int32      // counting-sort scratch (n)
	marks bitmap       // reach bitmap over elimination positions, ⌈n/32⌉ words

	lColPtr []int32 // n+1: during factor, start of column j's L run
	uColPtr []int32 // n+1: during factor, start of column j's U run
	uRowPtr []int32 // n+1

	// Column-phase store: column j appends its U entries (pivot position,
	// value) at [uColPtr[j], lColPtr[j]) then its L entries (original
	// row, value) at [lColPtr[j], uColPtr[j+1]). finalize transposes U
	// out to uIdx/uVal row storage and compacts L in place, after which
	// [lColPtr[j], lColPtr[j+1]) is column j's L run with final rows.
	cIdx []int32
	cVal []complex128

	uIdx []int32
	uVal []complex128

	// Every buffer above is carved out of these two slabs, so binding a
	// pattern costs two allocations (plus the []int pivot) no matter how
	// many logical arrays the factorization tracks.
	cplxSlab []complex128
	intSlab  []int32

	out SparseLU
}

// NewSparseScratch returns scratch bound to the pattern.
func NewSparseScratch(p *Pattern) *SparseScratch {
	s := &SparseScratch{}
	s.Bind(p)
	return s
}

// Bind sizes the scratch for a pattern, reallocating only when the
// current buffers are too small — the same grow-only reuse contract as
// Workspace.EnsureSparse. Rebinding the current pattern is a no-op.
func (s *SparseScratch) Bind(p *Pattern) {
	if s.pat == p {
		return
	}
	n := p.N
	// Entry stores start from a fill estimate (L+U of the near-banded
	// systems MNA produces runs ~1.5–2× the input nonzeros); growth past
	// it is amortized append, migrating the grown buffer off the slab up
	// to a high-water mark that the next Factor reuses.
	est := 2*p.NNZ() + 2*n
	if need := 3*n + 2*est; cap(s.cplxSlab) < need {
		s.cplxSlab = make([]complex128, need)
	}
	c := s.cplxSlab
	s.x = c[0:n:n]
	s.diag = c[n : 2*n : 2*n]
	s.acc = c[2*n : 3*n : 3*n]
	s.cVal = c[3*n : 3*n : 3*n+est]
	s.uVal = c[3*n+est : 3*n+est : 3*n+2*est]
	clear(s.x)
	nw := (n + 31) / 32
	if need := 6*n + 3 + 2*est + nw; cap(s.intSlab) < need {
		s.intSlab = make([]int32, need)
	}
	in := s.intSlab
	s.rowAt = in[0:n:n]
	s.posOf = in[n : 2*n : 2*n]
	s.cnt = in[2*n : 3*n : 3*n]
	s.lColPtr = in[3*n : 4*n+1 : 4*n+1]
	s.uColPtr = in[4*n+1 : 5*n+2 : 5*n+2]
	s.uRowPtr = in[5*n+2 : 6*n+3 : 6*n+3]
	s.cIdx = in[6*n+3 : 6*n+3 : 6*n+3+est]
	s.uIdx = in[6*n+3+est : 6*n+3+est : 6*n+3+2*est]
	s.marks = in[6*n+3+2*est : 6*n+3+2*est+nw : 6*n+3+2*est+nw]
	clear(s.marks)
	if cap(s.out.pivot) < n {
		s.out.pivot = make([]int, n)
	}
	s.pat = p
}

// Factor computes the LU factorization, with partial pivoting, of the
// matrix whose values are vals laid out under the bound pattern. The
// returned factor aliases the scratch and is valid until the next
// Factor call. Failures are exactly the
// dense FactorInPlace's: ErrSingular with the same pivot magnitude and
// column index.
//
// The elimination is left-looking (Gilbert–Peierls shaped): each column
// is scattered dense, updated by the prior L columns in ascending
// order, then pivoted. Every loop walks only the column's reach — the
// elimination positions its scatter and updates mark — so a column
// costs its arithmetic, not its order. See the SparseLU compatibility
// contract for why every arithmetic step mirrors the dense right-looking
// elimination.
func (s *SparseScratch) Factor(vals []complex128) (*SparseLU, error) {
	p := s.pat
	n := p.N
	if len(vals) != p.NNZ() {
		return nil, fmt.Errorf("%w: %d values for pattern with %d nonzeros", ErrShape, len(vals), p.NNZ())
	}
	out := &s.out
	if cap(out.pivot) < n {
		out.pivot = make([]int, n)
	}
	out.pivot = out.pivot[:n]
	sign := 1
	for i := range s.rowAt {
		s.rowAt[i] = int32(i)
		s.posOf[i] = int32(i)
	}
	s.cIdx = s.cIdx[:0]
	s.cVal = s.cVal[:0]

	for j := 0; j < n; j++ {
		// Scatter column j of A into x by original row index, marking
		// each row's elimination position. x is all +0 outside the
		// marked positions: Bind clears it and every prior column
		// re-clears what it touched.
		for t := p.ColPtr[j]; t < p.ColPtr[j+1]; t++ {
			r := p.RowInd[t]
			s.x[r] = vals[p.CSlot[t]]
			s.marks.set(s.posOf[r])
		}
		// Left-looking update: apply prior L columns in ascending
		// elimination order. u[k][j] is read after columns < k have
		// updated it and is final — later steps never touch row k, so
		// its slot is re-zeroed on the spot. Each target entry receives
		// one subtraction per step, in ascending step order: the dense
		// right-looking loop's exact sequence. Column k's L rows all sit
		// at positions > k, so the ascending walk over marks meets every
		// position an earlier step marked; unmarked positions hold +0.
		s.uColPtr[j] = int32(len(s.cIdx))
		for k := s.marks.next(0); k < j; k = s.marks.next(k + 1) {
			rk := s.rowAt[k]
			ukj := s.x[rk]
			s.x[rk] = 0
			if ukj == 0 {
				// Its products are all ±0 and leave every finite
				// accumulator bit-unchanged; the dense loop performs
				// them, the sparse loop skips them.
				continue
			}
			s.cIdx = append(s.cIdx, int32(k))
			s.cVal = append(s.cVal, ukj)
			for t := s.lColPtr[k]; t < s.uColPtr[k+1]; t++ {
				r := s.cIdx[t]
				s.x[r] -= s.cVal[t] * ukj
				s.marks.set(s.posOf[r])
			}
		}
		s.lColPtr[j] = int32(len(s.cIdx))
		// Pivot search over positions j..n-1 ascending, strictly-greater
		// comparison — the dense scan's decisions exactly. Unmarked
		// positions and zeros can never beat the running maximum, so
		// only marked nonzeros are compared.
		pp, bv := j, s.x[s.rowAt[j]]
		bsq := sqAbs(bv)
		for q := s.marks.next(j + 1); q < n; q = s.marks.next(q + 1) {
			v := s.x[s.rowAt[q]]
			if v == 0 {
				continue
			}
			vsq := sqAbs(v)
			if c := sqCmp(vsq, bsq); c > 0 || c == 0 && cmplx.Abs(v) > cmplx.Abs(bv) {
				pp, bv, bsq = q, v, vsq
			}
		}
		if sqCmp(bsq, pivotTolSq) <= 0 {
			if best := cmplx.Abs(bv); best < PivotTolerance {
				clear(s.x)
				clear(s.marks)
				return nil, fmt.Errorf("%w: pivot %.3g at column %d", ErrSingular, best, j)
			}
		}
		out.pivot[j] = pp
		if pp != j {
			rp, rj := s.rowAt[pp], s.rowAt[j]
			s.rowAt[j], s.rowAt[pp] = rp, rj
			s.posOf[rp], s.posOf[rj] = int32(j), int32(pp)
			sign = -sign
		}
		rj := s.rowAt[j]
		d := s.x[rj]
		s.diag[j] = d
		s.x[rj] = 0
		// Gather L column j: the remaining candidates divided by the
		// pivot, exactly the l = a/d the dense loop stores, ascending by
		// position. Position pp is marked, so the row the swap moved
		// there is visited too. Explicit zeros are dropped — the dense
		// loop stores them but skips their updates, and their solve
		// products are signed zeros.
		for q := s.marks.next(j + 1); q < n; q = s.marks.next(q + 1) {
			r := s.rowAt[q]
			if xv := s.x[r]; xv != 0 {
				s.cIdx = append(s.cIdx, r)
				s.cVal = append(s.cVal, xv/d)
			}
			// Unconditional +0 store: a value that cancelled to −0 must
			// not leak into the next column's scatter (dense starts each
			// unstamped entry from +0).
			s.x[r] = 0
		}
		clear(s.marks)
	}
	s.uColPtr[n] = int32(len(s.cIdx))
	s.finalize(out, sign)
	return out, nil
}

// bitmap is a set of positions below n, one bit each, in ⌈n/32⌉ words.
type bitmap []int32

// set adds position q.
func (m bitmap) set(q int32) {
	m[q>>5] |= 1 << (q & 31)
}

// next returns the least position ≥ q in the set, or a value ≥ n when
// there is none. Bits set above the current word while a caller walks
// the set are seen, because each call rereads the words.
func (m bitmap) next(q int) int {
	w := q >> 5
	if w >= len(m) {
		return q
	}
	b := uint32(m[w]) &^ (1<<(q&31) - 1)
	for b == 0 {
		if w++; w == len(m) {
			return w << 5
		}
		b = uint32(m[w])
	}
	return w<<5 + bits.TrailingZeros32(b)
}

// prev returns the greatest position ≤ q in the set, or -1 when there
// is none.
func (m bitmap) prev(q int) int {
	if q < 0 {
		return -1
	}
	w := q >> 5
	b := uint32(m[w]) & (2<<(q&31) - 1)
	for b == 0 {
		if w--; w < 0 {
			return -1
		}
		b = uint32(m[w])
	}
	return w<<5 + bits.Len32(b) - 1
}

// The pivot search compares squared magnitudes instead of calling
// cmplx.Abs (math.Hypot) on every candidate. A squared magnitude inside
// [sqLo, sqHi] is a normal float with both squares free of overflow and
// of any underflow that matters, so it carries a relative error of a
// few ulp, as does Hypot. Two squares that differ by more than sqMargin
// relative therefore order their Hypots the same way, strictly; closer
// or out-of-range pairs are left to Hypot itself, as the dense scan
// does. NaN fails every range test and so always goes to Hypot.
const (
	sqLo       = 1e-290
	sqHi       = 1e290
	sqMargin   = 1e-12
	pivotTolSq = PivotTolerance * PivotTolerance
)

func sqAbs(v complex128) float64 { return real(v)*real(v) + imag(v)*imag(v) }

func inSqRange(sq float64) bool { return sq >= sqLo && sq <= sqHi }

// sqCmp orders two magnitudes by their squares vsq and bsq: +1 or -1
// when the squares decide |v| > |b| one way or the other, 0 when Hypot
// must. A bsq of exactly 0 means both of b's squares underflowed, so
// |b| < 1e-161 lies far below any |v| whose square is in range.
func sqCmp(vsq, bsq float64) int {
	if !inSqRange(vsq) {
		return 0
	}
	if bsq == 0 {
		return 1
	}
	if !inSqRange(bsq) {
		return 0
	}
	if d := vsq - bsq; d > sqMargin*bsq {
		return 1
	} else if d < -sqMargin*bsq {
		return -1
	}
	return 0
}

// finalize turns the interleaved column-phase store into the factor's
// final layout: U is transposed to row order (stable counting sort —
// columns were produced ascending, so each row's column list comes out
// ascending), then L is compacted in place with its row indices
// remapped from original rows to final pivot positions (the dense
// elimination swaps whole rows, already-written L included; posOf holds
// the net permutation).
func (s *SparseScratch) finalize(out *SparseLU, sign int) {
	n := s.pat.N
	clear(s.cnt)
	nu := 0
	for j := 0; j < n; j++ {
		for t := s.uColPtr[j]; t < s.lColPtr[j]; t++ {
			s.cnt[s.cIdx[t]]++
			nu++
		}
	}
	if cap(s.uIdx) < nu {
		s.uIdx = make([]int32, 0, nu+n)
		s.uVal = make([]complex128, 0, nu+n)
	}
	s.uIdx = s.uIdx[:nu]
	s.uVal = s.uVal[:nu]
	s.uRowPtr[0] = 0
	for i := 0; i < n; i++ {
		s.uRowPtr[i+1] = s.uRowPtr[i] + s.cnt[i]
		s.cnt[i] = s.uRowPtr[i]
	}
	for j := 0; j < n; j++ {
		for t := s.uColPtr[j]; t < s.lColPtr[j]; t++ {
			k := s.cIdx[t]
			w := s.cnt[k]
			s.uIdx[w] = int32(j)
			s.uVal[w] = s.cVal[t]
			s.cnt[k] = w + 1
		}
	}
	// Compact L: each column's run moves left over the space its U
	// entries vacated (the write cursor never passes a read position).
	var w int32
	for j := 0; j < n; j++ {
		start, end := s.lColPtr[j], s.uColPtr[j+1]
		s.lColPtr[j] = w
		for t := start; t < end; t++ {
			s.cIdx[w] = s.posOf[s.cIdx[t]]
			s.cVal[w] = s.cVal[t]
			w++
		}
	}
	s.lColPtr[n] = w

	out.n = n
	out.sign = sign
	out.lColPtr = s.lColPtr
	out.lIdx = s.cIdx[:w]
	out.lVal = s.cVal[:w]
	out.uRowPtr = s.uRowPtr
	out.uIdx = s.uIdx
	out.uVal = s.uVal
	out.diag = s.diag
	out.acc = s.acc
	out.posOf = s.posOf
	out.marks = s.marks
}
