package analysis

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"analogdft/internal/fault"
	"analogdft/internal/mna"
	"analogdft/internal/numeric"
)

// LowRankFault is a fault pre-lowered to the rank-1 matrix delta its
// in-place patch would stamp: PrepareLowRank resolves the patch target
// once, and SweepLowRank then answers the fault at every grid point
// against the nominal factorization via Sherman–Morrison.
type LowRankFault struct {
	delta mna.RankOne

	// SweepLowRank's working state: lead is the index in its lfs of the
	// first fault with this fault's incidence (u, v), and a lead's inc is
	// that incidence solved at the current point.
	lead int
	inc  numeric.Incidence
}

// PrepareLowRank lowers the fault to its rank-1 delta into lf, without
// touching the live system and without allocating. Faults that cannot
// patch at all propagate fault.ErrNotPatchable; patchable faults whose
// stamp delta is not a single outer product (opamp models, source
// amplitudes) propagate mna.ErrNotLowRank, and callers fall back to
// ApplyFault/SweepFault.
func (e *Engine) PrepareLowRank(f fault.Fault, lf *LowRankFault) error {
	name, v, err := f.PatchValue(e.driven)
	if err != nil {
		return err
	}
	return e.sys.RankOneDeltaInto(name, v, &lf.delta)
}

// LowRankRow is what one SweepLowRank walk measures on a configuration.
// Every response shares the walk's grid as its Freqs.
type LowRankRow struct {
	// Nominal is the nominal response, one factorization per point.
	Nominal *Response
	// Faulty[j] is fault j's response, answered against the same
	// per-point factorizations. A point the identity cannot answer — the
	// nominal matrix is singular there, or the update denominator
	// vanishes (numeric.ErrSingularUpdate) — is left invalid for the
	// caller to re-solve under a patch (ResolvePoints).
	Faulty []Response
	// Spread[j*len(grid)+i] bounds, by |re|+|im|, the term c·z the
	// update subtracted from the nominal solution at the observed node to
	// form Faulty[j].H[i]. Where it dwarfs |H| the subtraction cancelled,
	// and rounding in H is amplified by their ratio.
	Spread []float64
}

// SweepLowRank walks the grid once with the engine nominal. At every
// point it factors the nominal matrix once, records the nominal response
// — the same solve, and so the same bits, as SweepGrid — and answers
// every fault of lfs against that factorization by Sherman–Morrison.
// Faults whose deltas share an incidence (u, v) — parallel elements
// across one node pair — differ only in scale, so each point solves one
// z = A⁻¹u per incidence (numeric SolveIncidence), working out only the
// entries of z the observed entry and vᵀz read, and answers each fault
// from it in a few operations (Incidence.Entry), with the bits of the
// full Sherman–Morrison solve. No factor outlives its point. lfs is the
// walk's working storage: it groups the faults in place. ctx is checked
// once per point; a cancelled walk returns ctx's error. The engine is
// nominal when this returns.
func (e *Engine) SweepLowRank(ctx context.Context, grid []float64, lfs []LowRankFault) (*LowRankRow, error) {
	if len(grid) == 0 {
		return nil, fmt.Errorf("%w: empty grid", ErrBadSweep)
	}
	if e.sys.Patched() {
		return nil, fmt.Errorf("%w: low-rank sweep on a patched system", ErrBadSweep)
	}
	np, nf := len(grid), len(lfs)
	row := &LowRankRow{
		Nominal: &Response{Freqs: grid, H: make([]complex128, np), Valid: make([]bool, np)},
		Faulty:  make([]Response, nf),
		Spread:  make([]float64, nf*np),
	}
	hs, valid := make([]complex128, nf*np), make([]bool, nf*np)
	for j := range row.Faulty {
		seg := j * np
		row.Faulty[j] = Response{Freqs: grid, H: hs[seg : seg+np : seg+np], Valid: valid[seg : seg+np : seg+np]}
	}
	for j := range lfs {
		lfs[j].lead = j
		for l := range j {
			if lfs[l].lead == l && sameIncidence(&lfs[l].delta, &lfs[j].delta) {
				lfs[j].lead = l
				break
			}
		}
	}
	var solves, incidences int64
	defer func() {
		eLowRankSolves.Add(solves)
		eLowRankIncidences.Add(incidences)
	}()
	defer e.sw.FlushMetrics()
	// A ground output reads 0 at every valid point, as in SweepGrid; the
	// update still runs so its singularity verdict holds.
	k := max(e.nodeIdx, 0)
	for i, f := range grid {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lu, y, err := e.sw.FactorAt(f)
		if err != nil {
			if errors.Is(err, numeric.ErrSingular) {
				continue // every response stays invalid here
			}
			return nil, err
		}
		if e.nodeIdx >= 0 {
			row.Nominal.H[i] = y[k]
		}
		row.Nominal.Valid[i] = true
		if nf == 0 {
			continue
		}
		if err := e.rank1.Reset(lu, y); err != nil {
			return nil, err
		}
		for j := range lfs {
			lf := &lfs[j]
			d := &lf.delta
			if lf.lead == j {
				incidences++
				if lf.inc, err = e.rank1.SolveIncidence(d.UIdx, d.UVal, d.VIdx, d.VVal, k); err != nil {
					return nil, err
				}
			}
			solves++
			h, cz, err := lfs[lf.lead].inc.Entry(d.ScaleAt(f))
			if err != nil {
				continue // numeric.ErrSingularUpdate: left for the tail
			}
			if e.nodeIdx < 0 {
				h, cz = 0, 0
			}
			row.Faulty[j].H[i] = h
			row.Faulty[j].Valid[i] = true
			row.Spread[j*np+i] = abs1(cz)
		}
	}
	return row, nil
}

// sameIncidence reports whether two deltas have the same factors u and
// v, index for index and bit for bit, so that one z = A⁻¹u serves both.
func sameIncidence(a, b *mna.RankOne) bool {
	return slices.Equal(a.UIdx, b.UIdx) && slices.Equal(a.VIdx, b.VIdx) &&
		sameBits(a.UVal, b.UVal) && sameBits(a.VVal, b.VVal)
}

// sameBits reports whether two vectors hold the same bits entry by entry.
func sameBits(a, b []complex128) bool {
	return slices.EqualFunc(a, b, func(x, y complex128) bool {
		return math.Float64bits(real(x)) == math.Float64bits(real(y)) &&
			math.Float64bits(imag(x)) == math.Float64bits(imag(y))
	})
}

// abs1 is |re| + |im|: within √2 of the modulus, without the hypot.
func abs1(z complex128) float64 {
	re, im := real(z), imag(z)
	if re < 0 {
		re = -re
	}
	if im < 0 {
		im = -im
	}
	return re + im
}

// ResolvePoints re-solves the listed grid points of resp in the engine's
// current state — one full factorization each, exactly the solve
// SweepGrid performs there — overwriting H and Valid; singular points
// are left invalid with H zero. The rank-1 cell tail calls it with the
// fault patched in (ApplyFault), for the points Sherman–Morrison could
// not answer or whose verdict it could not settle. Failures other than a
// singular system abort the re-solve.
func (e *Engine) ResolvePoints(resp *Response, points []int) error {
	defer e.sw.FlushMetrics()
	for _, i := range points {
		v, err := e.sw.VoltageAt(resp.Freqs[i])
		if err != nil {
			if !errors.Is(err, numeric.ErrSingular) {
				return err
			}
			v = 0
		}
		resp.H[i] = v
		resp.Valid[i] = err == nil
	}
	return nil
}
