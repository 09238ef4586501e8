package numeric

import (
	"errors"
	"fmt"
	"math/cmplx"
)

// ErrSingularUpdate is returned by SolveRankOneSparse when the
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
// the solver is in use. A LowRankSolver is not safe for concurrent use
// (the scratch vector is shared across calls); give each worker its own.
type LowRankSolver struct {
	lu *SparseLU
	y  []complex128 // nominal solution A⁻¹·b
	z  []complex128 // scratch for A⁻¹·u
}

// NewLowRankSolver wraps a factorization of the nominal matrix and its
// pre-solved right-hand side. y must have length lu.N().
func NewLowRankSolver(lu *SparseLU, y []complex128) (*LowRankSolver, error) {
	if len(y) != lu.N() {
		return nil, fmt.Errorf("%w: nominal solution length %d, want %d", ErrShape, len(y), lu.N())
	}
	return &LowRankSolver{lu: lu, y: y, z: make([]complex128, lu.N())}, nil
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
	n := ls.N()
	if len(x) != n {
		return fmt.Errorf("%w: rank-1 solution length %d, want %d", ErrShape, len(x), n)
	}
	for _, i := range uIdx {
		if i < 0 || i >= n {
			return fmt.Errorf("%w: u index %d outside order %d", ErrShape, i, n)
		}
	}
	for _, i := range vIdx {
		if i < 0 || i >= n {
			return fmt.Errorf("%w: v index %d outside order %d", ErrShape, i, n)
		}
	}
	if s == 0 {
		copy(x, ls.y)
		return nil
	}
	ScatterSparse(uIdx, uVal, ls.z)
	if err := ls.lu.SolveInPlace(ls.z); err != nil {
		return err
	}
	vy := DotSparse(vIdx, vVal, ls.y)
	vz := DotSparse(vIdx, vVal, ls.z)
	den := 1 + s*vz
	if cmplx.Abs(den) < UpdateTolerance {
		return fmt.Errorf("%w: |1 + s·vᵀA⁻¹u| = %.3g", ErrSingularUpdate, cmplx.Abs(den))
	}
	c := s * vy / den
	for i := range x {
		x[i] = ls.y[i] - c*ls.z[i]
	}
	return nil
}
