package numeric

import (
	"errors"
	"fmt"
	"math/cmplx"
)

// ErrSingularUpdate is returned by the rank-1 solves when the
// Sherman–Morrison denominator 1 + s·vᵀA⁻¹u is too small: the perturbed
// matrix A + s·u·vᵀ is (numerically) singular even though the nominal A
// factored fine.
// Callers fall back to a full refactorization of the perturbed matrix,
// which reproduces the reference path's singularity verdict exactly.
var ErrSingularUpdate = errors.New("numeric: singular rank-1 update")

// UpdateTolerance is the magnitude below which the Sherman–Morrison
// denominator is treated as zero. It is deliberately far above machine
// epsilon: a denominator of 10⁻⁸ already amplifies the nominal solve's
// rounding error by 10⁸, so such points are handed back to the full
// refactorization path rather than answered with digits that are mostly
// noise.
const UpdateTolerance = 1e-8

// LowRankSolver couples one sparse LU factorization of a nominal matrix
// A with its solution y = A⁻¹·b and a scratch vector, so that rank-1
// perturbed systems (A + s·u·vᵀ)·x = b solve in O(n²) — two triangular
// solves and two sparse dot products — instead of refactoring the
// perturbed matrix. This is the Sherman–Morrison identity:
//
//	x = y − z·(s·vᵀy)/(1 + s·vᵀz),  z = A⁻¹·u
//
// The solver retains lu and y by reference; neither may be mutated while
// the solver is in use. Reset rebinds it to the next factorization, so one
// solver serves a sweep that refactors at every grid point. A
// LowRankSolver is not safe for concurrent use (the scratch vector is
// shared across calls); give each worker its own. The zero value is ready
// for Reset.
type LowRankSolver struct {
	lu *SparseLU
	y  []complex128 // nominal solution A⁻¹·b
	z  []complex128 // scratch for A⁻¹·u
}

// NewLowRankSolver wraps a factorization of the nominal matrix and its
// pre-solved right-hand side. y must have length lu.N().
func NewLowRankSolver(lu *SparseLU, y []complex128) (*LowRankSolver, error) {
	ls := &LowRankSolver{}
	if err := ls.Reset(lu, y); err != nil {
		return nil, err
	}
	return ls, nil
}

// Reset rebinds the solver to another nominal factorization and its
// pre-solved right-hand side, reusing the scratch when it fits. y must
// have length lu.N().
func (ls *LowRankSolver) Reset(lu *SparseLU, y []complex128) error {
	n := lu.N()
	if len(y) != n {
		return fmt.Errorf("%w: nominal solution length %d, want %d", ErrShape, len(y), n)
	}
	if cap(ls.z) < n {
		ls.z = make([]complex128, n)
	}
	ls.lu, ls.y, ls.z = lu, y, ls.z[:n]
	return nil
}

// Nominal returns the cached nominal solution y = A⁻¹·b (a live reference,
// not a copy).
func (ls *LowRankSolver) Nominal() []complex128 { return ls.y }

// N returns the dimension of the nominal system.
func (ls *LowRankSolver) N() int { return ls.lu.N() }

// SolveRankOneSparse writes x = (A + s·u·vᵀ)⁻¹·b into x via
// Sherman–Morrison, with u and v supplied in sparse (index, value) form —
// the incidence vectors MNA rank-1 patches carry hold at most two entries
// each. x must have length N(). A scale of exactly zero short-circuits to
// the nominal solution. Returns ErrSingularUpdate when
// |1 + s·vᵀA⁻¹u| < UpdateTolerance — the singular-update detector; the
// caller must then refactor the perturbed matrix in full (or propagate
// the point as singular).
func (ls *LowRankSolver) SolveRankOneSparse(s complex128, uIdx []int, uVal []complex128, vIdx []int, vVal []complex128, x []complex128) error {
	if len(x) != ls.N() {
		return fmt.Errorf("%w: rank-1 solution length %d, want %d", ErrShape, len(x), ls.N())
	}
	c, err := ls.update(s, uIdx, uVal, vIdx, vVal)
	if err != nil {
		return err
	}
	if s == 0 {
		copy(x, ls.y)
		return nil
	}
	for i := range x {
		x[i] = ls.y[i] - c*ls.z[i]
	}
	return nil
}

// SolveRankOneEntry is SolveRankOneSparse for entry k of x alone: the
// same arithmetic, so xk carries the same bits as x[k] would, without
// forming the other entries. It also returns the subtracted term
// cz = c·z[k] (xk = y[k] − cz; zero when s is zero): where |cz| dwarfs
// |xk| the subtraction cancelled, and rounding in xk is amplified by
// their ratio.
func (ls *LowRankSolver) SolveRankOneEntry(s complex128, uIdx []int, uVal []complex128, vIdx []int, vVal []complex128, k int) (xk, cz complex128, err error) {
	if k < 0 || k >= ls.N() {
		return 0, 0, fmt.Errorf("%w: entry %d outside order %d", ErrShape, k, ls.N())
	}
	c, err := ls.update(s, uIdx, uVal, vIdx, vVal)
	if err != nil {
		return 0, 0, err
	}
	if s == 0 {
		return ls.y[k], 0, nil
	}
	cz = c * ls.z[k]
	return ls.y[k] - cz, cz, nil
}

// update validates the sparse factors and, unless s is zero, solves
// z = A⁻¹·u into the scratch and returns the Sherman–Morrison coefficient
// c = s·vᵀy / (1 + s·vᵀz).
func (ls *LowRankSolver) update(s complex128, uIdx []int, uVal []complex128, vIdx []int, vVal []complex128) (complex128, error) {
	n := ls.N()
	for _, i := range uIdx {
		if i < 0 || i >= n {
			return 0, fmt.Errorf("%w: u index %d outside order %d", ErrShape, i, n)
		}
	}
	for _, i := range vIdx {
		if i < 0 || i >= n {
			return 0, fmt.Errorf("%w: v index %d outside order %d", ErrShape, i, n)
		}
	}
	if s == 0 {
		return 0, nil
	}
	ScatterSparse(uIdx, uVal, ls.z)
	if err := ls.lu.SolveInPlace(ls.z); err != nil {
		return 0, err
	}
	vy := DotSparse(vIdx, vVal, ls.y)
	vz := DotSparse(vIdx, vVal, ls.z)
	den := 1 + s*vz
	if cmplx.Abs(den) < UpdateTolerance {
		return 0, fmt.Errorf("%w: |1 + s·vᵀA⁻¹u| = %.3g", ErrSingularUpdate, cmplx.Abs(den))
	}
	return s * vy / den, nil
}
