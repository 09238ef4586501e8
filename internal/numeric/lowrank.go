package numeric

import (
	"errors"
	"fmt"
	"math"
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
// perturbed systems (A + s·u·vᵀ)·x = b solve by at most a triangular
// solve pair and two sparse dot products instead of refactoring the
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

// Incidence is what Sherman–Morrison needs from one rank-1 incidence
// (u, v) at one nominal factorization, read at entry k: y[k], z[k],
// vᵀy and vᵀz with z = A⁻¹·u. None of it depends on the scale s, so
// every update s·u·vᵀ with that incidence — parallel elements across
// one node pair, or one element at several values — is answered from
// one solve by Entry.
type Incidence struct {
	yk, zk, vy, vz complex128
	// my, mz, mvy and mvz are, for an incidence that a Woodbury
	// correction formed (Woodbury.IncidenceInto), the magnitudes of the sums
	// behind yk, zk, vy and vz — |basis value| + Σ|correction term| —
	// which bound how far their rounding can move them. All four are
	// zero for an incidence solved against its own factorization.
	my, mz, mvy, mvz float64
}

// Parts returns the incidence's entries y[k], z[k], vᵀy and vᵀz.
func (in *Incidence) Parts() (yk, zk, vy, vz complex128) { return in.yk, in.zk, in.vy, in.vz }

// SolveIncidenceAt solves z = A⁻¹·u for the incidence (u, v) and reads
// what Entry needs at entry k. It works out only z[k] and z at every
// index of at, which must include v's (SparseLU.SolveSparse), with the
// bits of SolveRankOneSparse's full solve: until the next solve, Z holds
// z[k] and z at those indices with SolveInPlace's bits.
func (ls *LowRankSolver) SolveIncidenceAt(uIdx []int, uVal []complex128, vIdx []int, vVal []complex128, k int, at []int) (Incidence, error) {
	if err := ls.lu.SolveSparse(uIdx, uVal, k, at, ls.z); err != nil {
		return Incidence{}, err
	}
	return Incidence{
		yk: ls.y[k],
		zk: ls.z[k],
		vy: DotSparse(vIdx, vVal, ls.y),
		vz: DotSparse(vIdx, vVal, ls.z),
	}, nil
}

// Z returns the scratch z of the last incidence solve (a live
// reference): only the entries that solve was asked for are defined.
func (ls *LowRankSolver) Z() []complex128 { return ls.z }

// Rounding bounds, as a magnitude, how far the rounding of a Woodbury
// correction can move Entry(s)'s answer xk = y[k] − c·z[k],
// c = s·vᵀy/(1 + s·vᵀz): each of y[k], z[k], vᵀy and vᵀz may be off by a
// few ulp of its sum's magnitude, and those errors reach xk with the
// weights 1, |c|, |s·z[k]/den| and |c·z[k]·s/den|, each taken here by
// |re| + |im| (within a factor √2). It is zero for an incidence solved
// against its own factorization.
func (in *Incidence) Rounding(s complex128) float64 {
	if in.my == 0 && in.mz == 0 && in.mvy == 0 && in.mvz == 0 {
		return 0
	}
	if s == 0 {
		return in.my
	}
	sd := Abs1(s) / Abs1(1+s*in.vz)
	c, zk := sd*Abs1(in.vy), Abs1(in.zk)
	return in.my + c*in.mz + sd*zk*(in.mvy+c*in.mvz)
}

// Abs1 is |re| + |im|: within √2 of the modulus, without the hypot.
func Abs1(z complex128) float64 {
	return math.Abs(real(z)) + math.Abs(imag(z))
}

// Entry answers the update of scale s: entry k of (A + s·u·vᵀ)⁻¹·b,
// with the bits SolveRankOneSparse gives x[k]. It also returns the
// subtracted term cz = c·z[k] (xk = y[k] − cz; zero when s is zero):
// where |cz| dwarfs |xk| the subtraction cancelled, and rounding in xk
// is amplified by their ratio. The error is ErrSingularUpdate, as
// SolveRankOneSparse reports it.
func (in *Incidence) Entry(s complex128) (xk, cz complex128, err error) {
	if s == 0 {
		return in.yk, 0, nil
	}
	c, err := coefficient(s, in.vy, in.vz)
	if err != nil {
		return 0, 0, err
	}
	cz = c * in.zk
	return in.yk - cz, cz, nil
}

// update validates the sparse factors and, unless s is zero, solves
// z = A⁻¹·u into the scratch and returns the Sherman–Morrison coefficient
// c = s·vᵀy / (1 + s·vᵀz).
func (ls *LowRankSolver) update(s complex128, uIdx []int, uVal []complex128, vIdx []int, vVal []complex128) (complex128, error) {
	n := ls.N()
	if err := checkIndices("u", uIdx, n); err != nil {
		return 0, err
	}
	if err := checkIndices("v", vIdx, n); err != nil {
		return 0, err
	}
	if s == 0 {
		return 0, nil
	}
	ScatterSparse(uIdx, uVal, ls.z)
	if err := ls.lu.SolveInPlace(ls.z); err != nil {
		return 0, err
	}
	return coefficient(s, DotSparse(vIdx, vVal, ls.y), DotSparse(vIdx, vVal, ls.z))
}

// coefficient returns the Sherman–Morrison coefficient
// c = s·vᵀy / (1 + s·vᵀz), or ErrSingularUpdate when the denominator is
// below UpdateTolerance in magnitude.
func coefficient(s, vy, vz complex128) (complex128, error) {
	den := 1 + s*vz
	if singularDen(den) {
		return 0, fmt.Errorf("%w: |1 + s·vᵀA⁻¹u| = %.3g", ErrSingularUpdate, cmplx.Abs(den))
	}
	return s * vy / den, nil
}

// updateTolSq is UpdateTolerance squared, for the screen below.
const updateTolSq = UpdateTolerance * UpdateTolerance

// singularDen reports |den| < UpdateTolerance, cmplx.Abs's verdict. Like
// the pivot search it compares squares and calls cmplx.Abs only when
// they cannot decide (sqCmp): near the tolerance, out of the squares'
// range, or NaN.
func singularDen(den complex128) bool {
	if c := sqCmp(sqAbs(den), updateTolSq); c != 0 {
		return c < 0
	}
	return cmplx.Abs(den) < UpdateTolerance
}
