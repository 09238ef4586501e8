// Package numeric provides the complex linear algebra used by the MNA
// (Modified Nodal Analysis) engine: dense matrices over complex128 with LU
// factorization and linear solves; and the CSR layer (Pattern, SparseLU,
// Workspace) the engine actually solves with.
//
// The matrices arising from small-signal analysis of RC-opamp networks
// are small (tens of unknowns) but mostly empty, so the engine assembles
// and factors them in CSR form. The sparse LU replays the dense
// elimination operation for operation, which keeps the dense LU useful as
// the bit-exact reference the sparse path is tested against.
package numeric

import (
	"errors"
	"fmt"
)

// ErrSingular is returned when a factorization or solve encounters a
// numerically singular matrix (a pivot below the singularity threshold).
// In circuit terms this usually means a floating node or a contradictory
// constraint set (e.g. two ideal voltage constraints fighting over a node).
var ErrSingular = errors.New("numeric: singular matrix")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("numeric: incompatible shapes")

// PivotTolerance is the absolute magnitude below which a pivot is treated
// as zero during LU factorization. MNA stamps are O(1/R) to O(ωC) so values
// far below this are structurally-zero rows rather than tiny conductances.
const PivotTolerance = 1e-13

// Matrix is a dense, row-major complex matrix.
type Matrix struct {
	Rows, Cols int
	Data       []complex128 // len == Rows*Cols, row-major
}

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("numeric: negative dimension %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]complex128, r*c)}
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) complex128 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v complex128) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = v
}

// Add accumulates v into element (i,j). This is the fundamental "stamp"
// operation used by the MNA engine.
func (m *Matrix) Add(i, j int, v complex128) {
	m.check(i, j)
	m.Data[i*m.Cols+j] += v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("numeric: index (%d,%d) out of range for %dx%d matrix", i, j, m.Rows, m.Cols))
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero resets every element to 0, retaining the backing storage.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []complex128 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("numeric: row %d out of range for %dx%d matrix", i, m.Rows, m.Cols))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// LU is an LU factorization with partial pivoting: P·A = L·U packed into a
// single matrix (unit diagonal of L implicit).
type LU struct {
	lu    *Matrix
	pivot []int // row permutation
	sign  int   // permutation parity, for determinant
}

// Factor computes the LU factorization of a square matrix A. A is not
// modified: Factor is FactorInPlace on a copy. Returns ErrSingular when a
// pivot below PivotTolerance is met, wrapped with the offending column
// for diagnosis.
func Factor(a *Matrix) (*LU, error) {
	lu, err := FactorInPlace(a.Clone(), nil)
	if err != nil {
		return nil, err
	}
	return &lu, nil
}

// N returns the dimension of the factored system.
func (f *LU) N() int { return f.lu.Rows }

// Solve solves A·x = b for one right-hand side. b is not modified:
// Solve is SolveInPlace on a copy.
func (f *LU) Solve(b []complex128) ([]complex128, error) {
	x := make([]complex128, len(b))
	copy(x, b)
	if err := f.SolveInPlace(x); err != nil {
		return nil, err
	}
	return x, nil
}

// Solve factors A and solves A·x = b in one call.
func Solve(a *Matrix, b []complex128) ([]complex128, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
