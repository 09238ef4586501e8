// Package symbolic extracts rational transfer functions H(s) = N(s)/D(s)
// from sampled AC responses: a linear least-squares fit of the polynomial
// coefficients (Levy's method on a normalized frequency axis), polynomial
// root extraction (Durand–Kerner), and pole/zero → (f0, Q) conversion.
//
// The paper's metrics work directly on sampled responses, but a rational
// model is the natural bridge to the symbolic testability literature it
// cites ([9]) and gives each test configuration an interpretable
// characterization (order, poles, zeros, Q) used by the reports and by
// tests that cross-check the MNA engine against closed forms.
package symbolic

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"analogdft/internal/analysis"
	"analogdft/internal/circuit"
	"analogdft/internal/numeric"
)

// ErrBadFit is returned when a fit is infeasible or fails to converge.
var ErrBadFit = errors.New("symbolic: bad fit")

// Rational is a rational function in the normalized variable
// s' = s / (2π·ScaleHz):
//
//	H(s') = (Num[0] + Num[1]·s' + …) / (Den[0] + Den[1]·s' + … + s'^n)
//
// Den is stored without its monic leading coefficient.
type Rational struct {
	Num     []float64
	Den     []float64 // length = pole count; leading 1 implicit
	ScaleHz float64
}

// NumOrder returns the numerator degree.
func (r *Rational) NumOrder() int { return len(r.Num) - 1 }

// DenOrder returns the denominator degree (pole count).
func (r *Rational) DenOrder() int { return len(r.Den) }

// Eval evaluates the model at a physical frequency (Hz).
func (r *Rational) Eval(freqHz float64) complex128 {
	s := complex(0, freqHz/r.ScaleHz)
	num := horner(r.Num, s)
	den := hornerMonic(r.Den, s)
	return num / den
}

// horner evaluates a polynomial with ascending coefficients.
func horner(c []float64, s complex128) complex128 {
	var acc complex128
	for i := len(c) - 1; i >= 0; i-- {
		acc = acc*s + complex(c[i], 0)
	}
	return acc
}

// hornerMonic evaluates c[0] + c[1]s + … + s^len(c).
func hornerMonic(c []float64, s complex128) complex128 {
	acc := complex128(1)
	for i := len(c) - 1; i >= 0; i-- {
		acc = acc*s + complex(c[i], 0)
	}
	return acc
}

// Poles returns the model poles as physical complex frequencies in Hz
// (s_pole / 2π, i.e. σ + jf).
func (r *Rational) Poles() []complex128 {
	// r.Den already omits the monic leading coefficient, which realRoots
	// treats as implicit.
	roots := realRoots(append([]float64(nil), r.Den...))
	for i := range roots {
		roots[i] *= complex(r.ScaleHz, 0)
	}
	return roots
}

// Zeros returns the model zeros in the same units as Poles.
func (r *Rational) Zeros() []complex128 {
	// Trim trailing (near-)zero leading coefficients.
	num := append([]float64(nil), r.Num...)
	for len(num) > 1 && math.Abs(num[len(num)-1]) < 1e-12*maxAbs(num) {
		num = num[:len(num)-1]
	}
	if len(num) <= 1 {
		return nil
	}
	lead := num[len(num)-1]
	monic := make([]float64, len(num)-1)
	for i := range monic {
		monic[i] = num[i] / lead
	}
	roots := realRoots(monic)
	for i := range roots {
		roots[i] *= complex(r.ScaleHz, 0)
	}
	return roots
}

func maxAbs(c []float64) float64 {
	m := 0.0
	for _, v := range c {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// realRoots finds the roots of the monic polynomial
// c[0] + c[1]x + … + x^len(c) by Durand–Kerner iteration.
func realRoots(c []float64) []complex128 {
	n := len(c)
	if n == 0 {
		return nil
	}
	eval := func(x complex128) complex128 { return hornerMonic(c, x) }
	// Initial guesses on a non-real circle.
	roots := make([]complex128, n)
	seed := complex(0.4, 0.9)
	roots[0] = seed
	for i := 1; i < n; i++ {
		roots[i] = roots[i-1] * seed
	}
	for iter := 0; iter < 500; iter++ {
		moved := 0.0
		for i := range roots {
			num := eval(roots[i])
			den := complex128(1)
			for j := range roots {
				if j != i {
					den *= roots[i] - roots[j]
				}
			}
			if den == 0 {
				den = complex(1e-12, 0)
			}
			delta := num / den
			roots[i] -= delta
			if d := cmplx.Abs(delta); d > moved {
				moved = d
			}
		}
		if moved < 1e-12 {
			break
		}
	}
	return roots
}

// Fit performs a linear least-squares (Levy) fit of a rational model with
// the given orders to a sampled response. Invalid sample points are
// skipped; at least numOrder+denOrder+1 valid points are required.
func Fit(resp *analysis.Response, numOrder, denOrder int) (*Rational, error) {
	if numOrder < 0 || denOrder < 1 || numOrder > denOrder {
		return nil, fmt.Errorf("%w: orders (%d, %d)", ErrBadFit, numOrder, denOrder)
	}
	var freqs []float64
	var h []complex128
	for i := range resp.Freqs {
		if resp.Valid[i] {
			freqs = append(freqs, resp.Freqs[i])
			h = append(h, resp.H[i])
		}
	}
	unknowns := (numOrder + 1) + denOrder
	if len(freqs) < unknowns {
		return nil, fmt.Errorf("%w: %d valid points for %d unknowns", ErrBadFit, len(freqs), unknowns)
	}
	// Normalize the frequency axis to the geometric mean for conditioning.
	scale := math.Sqrt(freqs[0] * freqs[len(freqs)-1])
	if scale <= 0 {
		return nil, fmt.Errorf("%w: non-positive frequencies", ErrBadFit)
	}

	// Levy's equations per sample k (s = j·f/scale):
	//   Σ_i a_i s^i  −  H_k · Σ_j b_j s^j  =  H_k · s^denOrder
	// with unknowns a_0..a_numOrder, b_0..b_(denOrder−1), b_denOrder = 1.
	rows := len(freqs)
	a := numeric.NewMatrix(rows, unknowns)
	rhs := make([]complex128, rows)
	for k, f := range freqs {
		s := complex(0, f/scale)
		pow := complex128(1)
		for i := 0; i <= numOrder; i++ {
			a.Set(k, i, pow)
			pow *= s
		}
		pow = 1
		for j := 0; j < denOrder; j++ {
			a.Set(k, numOrder+1+j, -h[k]*pow)
			pow *= s
		}
		rhs[k] = h[k] * pow // pow is now s^denOrder
	}
	// Normal equations with the conjugate transpose: (AᴴA)x = AᴴB. The
	// unknowns are real; solve the complex system and take real parts
	// (imaginary parts vanish up to numerical noise for conjugate-
	// symmetric data; magnitude-only data still yields a usable fit).
	ata, atb := normalEquations(a, rhs)
	// Tikhonov damping keeps near-singular fits (over-specified orders)
	// solvable.
	lambda := 1e-12 * maxAbsEntry(ata)
	for i := 0; i < ata.Rows; i++ {
		ata.Add(i, i, complex(lambda, 0))
	}
	x, err := numeric.Solve(ata, atb)
	if err != nil {
		return nil, fmt.Errorf("%w: normal equations: %v", ErrBadFit, err)
	}
	r := &Rational{ScaleHz: scale}
	for i := 0; i <= numOrder; i++ {
		r.Num = append(r.Num, real(x[i]))
	}
	for j := 0; j < denOrder; j++ {
		r.Den = append(r.Den, real(x[numOrder+1+j]))
	}
	return r, nil
}

// normalEquations returns AᴴA and Aᴴb, every entry summed over A's rows
// in order (a zero factor of AᴴA's sums skipped).
func normalEquations(a *numeric.Matrix, b []complex128) (*numeric.Matrix, []complex128) {
	ata, atb := numeric.NewMatrix(a.Cols, a.Cols), make([]complex128, a.Cols)
	for i := range atb {
		orow := ata.Row(i)
		for k := 0; k < a.Rows; k++ {
			x := cmplx.Conj(a.At(k, i))
			atb[i] += x * b[k]
			if x == 0 {
				continue
			}
			for j, v := range a.Row(k) {
				orow[j] += x * v
			}
		}
	}
	return ata, atb
}

// maxAbsEntry returns the largest element magnitude of m.
func maxAbsEntry(m *numeric.Matrix) float64 {
	peak := 0.0
	for _, v := range m.Data {
		if a := cmplx.Abs(v); a > peak {
			peak = a
		}
	}
	return peak
}

// MaxRelError returns the worst relative magnitude error of the model
// against a response (skipping invalid points and near-zero references).
func (r *Rational) MaxRelError(resp *analysis.Response) float64 {
	peak, _, ok := resp.PeakMag()
	if !ok {
		return math.Inf(1)
	}
	floor := peak * 1e-6
	worst := 0.0
	for i := range resp.Freqs {
		if !resp.Valid[i] {
			continue
		}
		ref := cmplx.Abs(resp.H[i])
		if ref < floor {
			continue
		}
		got := cmplx.Abs(r.Eval(resp.Freqs[i]))
		if e := math.Abs(got-ref) / ref; e > worst {
			worst = e
		}
	}
	return worst
}

// FitCircuit sweeps the circuit over the region and fits the smallest
// model (denominator order 1..maxOrder, numerator order ≤ denominator)
// whose worst relative error is below tol.
func FitCircuit(ckt *circuit.Circuit, region analysis.Region, points, maxOrder int, tol float64) (*Rational, error) {
	if err := region.Validate(); err != nil {
		return nil, err
	}
	if points < 8 {
		points = 64
	}
	if maxOrder < 1 {
		maxOrder = 6
	}
	if tol <= 0 {
		tol = 1e-4
	}
	resp, err := analysis.SweepOnGrid(ckt, region.Spec(points).Grid())
	if err != nil {
		return nil, err
	}
	var best *Rational
	bestErr := math.Inf(1)
	for dn := 1; dn <= maxOrder; dn++ {
		for nm := 0; nm <= dn; nm++ {
			r, err := Fit(resp, nm, dn)
			if err != nil {
				continue
			}
			e := r.MaxRelError(resp)
			if e < bestErr {
				best, bestErr = r, e
			}
			if e <= tol {
				return r, nil
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: no model up to order %d", ErrBadFit, maxOrder)
	}
	return best, fmt.Errorf("%w: best error %.3g above tolerance %.3g", ErrBadFit, bestErr, tol)
}

// DominantPair extracts (f0, Q) from a pole set: the complex-conjugate
// pair with the largest Q (poles in Hz units as returned by Poles). ok is
// false when no conjugate pair exists.
func DominantPair(poles []complex128) (f0, q float64, ok bool) {
	bestQ := -1.0
	for _, p := range poles {
		if imag(p) <= 0 {
			continue // take one of each conjugate pair
		}
		w0 := cmplx.Abs(p)
		if w0 == 0 {
			continue
		}
		sigma := -real(p)
		if sigma <= 0 {
			continue // unstable or marginal
		}
		qq := w0 / (2 * sigma)
		if qq > bestQ {
			bestQ, f0 = qq, w0
			ok = true
		}
	}
	return f0, bestQ, ok
}
