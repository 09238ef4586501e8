package numeric

// The dense helpers only the tests use: constructors, products and
// comparisons for the dense LU, which stays as the oracle the CSR path is
// held to.

import (
	"fmt"
	"math/cmplx"
	"strings"
)

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// FromRows builds a matrix from row slices; all rows must share a length.
func FromRows(rows [][]complex128) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("%w: row %d has %d columns, want %d", ErrShape, i, len(row), c)
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// Mul returns m·b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.Cols != b.Rows {
		return nil, fmt.Errorf("%w: %dx%d · %dx%d", ErrShape, m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		mrow := m.Row(i)
		orow := out.Row(i)
		for k := 0; k < m.Cols; k++ {
			a := mrow[k]
			if a == 0 {
				continue
			}
			brow := b.Row(k)
			for j := 0; j < b.Cols; j++ {
				orow[j] += a * brow[j]
			}
		}
	}
	return out, nil
}

// MulVec returns m·x for a vector x of length m.Cols.
func (m *Matrix) MulVec(x []complex128) ([]complex128, error) {
	if m.Cols != len(x) {
		return nil, fmt.Errorf("%w: %dx%d · vec(%d)", ErrShape, m.Rows, m.Cols, len(x))
	}
	out := make([]complex128, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s complex128
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// MaxAbs returns the largest element magnitude.
func (m *Matrix) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.Data {
		if a := cmplx.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Equalish reports whether two matrices agree element-wise within tol.
func (m *Matrix) Equalish(b *Matrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i, v := range m.Data {
		if cmplx.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// Pivot exposes the permutation buffer.
func (f *LU) Pivot() []int { return f.pivot }

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d [\n", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		b.WriteString("  ")
		for j := 0; j < m.Cols; j++ {
			v := m.At(i, j)
			fmt.Fprintf(&b, "(%9.3g%+9.3gi) ", real(v), imag(v))
		}
		b.WriteByte('\n')
	}
	b.WriteString("]")
	return b.String()
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() complex128 {
	d := complex(float64(f.sign), 0)
	for i := 0; i < f.N(); i++ {
		d *= f.lu.At(i, i)
	}
	return d
}
