package numeric

import (
	"fmt"
	"math/cmplx"
)

// FactorInPlace computes the LU factorization overwriting a's storage,
// with no allocation when pivot is supplied; Factor is this on a copy.
// The LU is returned by value so it never escapes to the heap; it aliases
// a, and a must not be used afterwards except through the LU. A nil pivot
// slice is allocated; a non-nil one is reused in place — resliced within
// its capacity when its length drifted from n, so the returned LU always
// aliases the caller's recycled buffer — and a buffer too small to hold n
// pivots is an ErrShape error, never a silent fresh allocation that would
// orphan the caller's buffer.
func FactorInPlace(a *Matrix, pivot []int) (LU, error) {
	if a.Rows != a.Cols {
		return LU{}, fmt.Errorf("%w: cannot factor %dx%d", ErrShape, a.Rows, a.Cols)
	}
	n := a.Rows
	if pivot == nil {
		pivot = make([]int, n)
	} else if len(pivot) != n {
		if cap(pivot) < n {
			return LU{}, fmt.Errorf("%w: pivot buffer holds %d (cap %d), want %d", ErrShape, len(pivot), cap(pivot), n)
		}
		pivot = pivot[:n]
	}
	sign := 1
	for k := 0; k < n; k++ {
		p, best := k, cmplx.Abs(a.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := cmplx.Abs(a.At(i, k)); v > best {
				p, best = i, v
			}
		}
		if best < PivotTolerance {
			return LU{}, fmt.Errorf("%w: pivot %.3g at column %d", ErrSingular, best, k)
		}
		pivot[k] = p
		if p != k {
			rp, rk := a.Row(p), a.Row(k)
			for j := 0; j < n; j++ {
				rp[j], rk[j] = rk[j], rp[j]
			}
			sign = -sign
		}
		d := a.At(k, k)
		for i := k + 1; i < n; i++ {
			l := a.At(i, k) / d
			a.Set(i, k, l)
			if l == 0 {
				continue
			}
			ri, rk := a.Row(i), a.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= l * rk[j]
			}
		}
	}
	return LU{lu: a, pivot: pivot, sign: sign}, nil
}

// SolveInPlace solves A·x = b writing the solution over b (no
// allocations).
func (f *LU) SolveInPlace(b []complex128) error {
	n := f.N()
	if len(b) != n {
		return fmt.Errorf("%w: rhs length %d, want %d", ErrShape, len(b), n)
	}
	for k := 0; k < n; k++ {
		if p := f.pivot[k]; p != k {
			b[k], b[p] = b[p], b[k]
		}
	}
	for i := 1; i < n; i++ {
		row := f.lu.Row(i)
		var s complex128
		for j := 0; j < i; j++ {
			s += row[j] * b[j]
		}
		b[i] -= s
	}
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		var s complex128
		for j := i + 1; j < n; j++ {
			s += row[j] * b[j]
		}
		b[i] = (b[i] - s) / row[i]
	}
	return nil
}
