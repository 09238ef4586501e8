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

	// The walk's grouping: lead is the index in its lfs of the first
	// fault with this fault's incidence (u, v), and q that incidence's
	// number.
	lead, q int
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
	// Nominal is the nominal response.
	Nominal *Response
	// Faulty[j] is fault j's response, answered against the same
	// per-point nominal. A point the identity cannot answer — the
	// nominal matrix is singular there, or the update denominator
	// vanishes (numeric.ErrSingularUpdate) — is left invalid for the
	// caller to re-solve under a patch (ResolvePoints).
	Faulty []Response
	// Spread[j*len(grid)+i] bounds, by |re|+|im|, the term c·z the
	// update subtracted from the nominal solution at the observed node to
	// form Faulty[j].H[i], plus, at a point answered through a Woodbury
	// correction, the magnitudes through which that correction's
	// rounding reaches the answer (numeric.Incidence.Rounding). Where it
	// dwarfs |H| the answer cancelled, and rounding in H is amplified by
	// their ratio.
	Spread []float64
	// Approx[i] marks a point whose nominal a Woodbury correction of the
	// basis formed (a row with followers) rather than the row's own
	// factorization, and NominalSpread[i] is then the magnitude of that
	// correction's sum (numeric.Woodbury.Nominal), which bounds its
	// rounding. Both are nil for a row without followers.
	Approx        []bool
	NominalSpread []float64
	// Factored is the number of points at which the walk factored the
	// row's own matrix: every point without a basis, else the points the
	// basis could not answer.
	Factored int

	nominal Response
}

// SweepLowRank walks the grid once with the engine nominal and answers
// every fault of lfs at every point by Sherman–Morrison. Faults whose
// deltas share an incidence (u, v) — parallel elements across one node
// pair — differ only in scale, so each point forms one incidence per
// group (numeric.Incidence) and answers each fault from it in a few
// operations (Incidence.Entry).
//
// Without a basis (b nil) the walk factors the engine's matrix at every
// point: the nominal response is that solve — the same bits as
// SweepGrid — and each incidence is one z = A⁻¹u (SolveIncidence),
// working out only the entries of z the observed entry and vᵀz read,
// with the bits of the full Sherman–Morrison solve. lfs is then the
// walk's working storage, grouped in place.
//
// With a basis over grid, the engine's matrix must be the basis matrix
// with the chain opamps listed in s (indices into the basis chain) in
// follower mode, and lfs must be the basis's LowRankFaults (or nil),
// which the walk only reads. Where the basis point holds, the walk reads
// the nominal and the incidences from it through a Woodbury correction —
// none with an empty s, whose values are the basis's bits — and factors
// its own matrix only where A₀ is singular or the correction's
// capacitance matrix fails its screen (numeric.Woodbury.Factor). No
// factor outlives its point.
//
// ctx is checked once per point; a cancelled walk returns ctx's error.
// The engine is nominal when this returns.
func (e *Engine) SweepLowRank(ctx context.Context, grid []float64, lfs []LowRankFault, b *Basis, s []int) (*LowRankRow, error) {
	if len(grid) == 0 {
		return nil, fmt.Errorf("%w: empty grid", ErrBadSweep)
	}
	if e.sys.Patched() {
		return nil, fmt.Errorf("%w: low-rank sweep on a patched system", ErrBadSweep)
	}
	if b != nil && len(b.grid) != len(grid) {
		return nil, fmt.Errorf("%w: %d-point walk over a %d-point basis", ErrBadSweep, len(grid), len(b.grid))
	}
	np, nf := len(grid), len(lfs)
	// The nominal's and the faults' values share one slab each, and so do
	// their validity flags and the spreads.
	hs, valid := make([]complex128, (nf+1)*np), make([]bool, (nf+1)*np)
	row := &LowRankRow{
		nominal: Response{Freqs: grid, H: hs[:np:np], Valid: valid[:np:np]},
		Faulty:  make([]Response, nf),
	}
	row.Nominal = &row.nominal
	for j := range row.Faulty {
		seg := (j + 1) * np
		row.Faulty[j] = Response{Freqs: grid, H: hs[seg : seg+np : seg+np], Valid: valid[seg : seg+np : seg+np]}
	}
	var ni int
	if b == nil {
		ni = groupIncidences(lfs)
	} else if nf > 0 {
		ni = b.ni
	}
	spreads := nf * np
	if b != nil && len(s) > 0 {
		spreads += np
		row.Approx = make([]bool, np)
	}
	row.Spread = make([]float64, spreads)
	if row.Approx != nil {
		row.Spread, row.NominalSpread = row.Spread[:nf*np:nf*np], row.Spread[nf*np:]
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
	// incs[q] is incidence q at the current point; answer answers fault j
	// at point i from its group's.
	incs := make([]numeric.Incidence, ni)
	answer := func(i, j int, f float64) {
		lf := &lfs[j]
		inc := &incs[lf.q]
		sc := lf.delta.ScaleAt(f)
		solves++
		h, cz, err := inc.Entry(sc)
		if err != nil {
			return // numeric.ErrSingularUpdate: left for the tail
		}
		if e.nodeIdx < 0 {
			h, cz = 0, 0
		}
		row.Faulty[j].H[i] = h
		row.Faulty[j].Valid[i] = true
		row.Spread[j*np+i] = numeric.Abs1(cz) + inc.Rounding(sc)
	}
	for i, f := range grid {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if b != nil {
			y0k, gk, wy, m := b.point(i)
			if b.ok(i) && e.wb.Factor(m, b.nc, s) {
				yk, mag := e.wb.Nominal(y0k, gk, wy)
				if e.nodeIdx >= 0 {
					row.Nominal.H[i] = yk
				}
				row.Nominal.Valid[i] = true
				if row.Approx != nil {
					row.Approx[i], row.NominalSpread[i] = true, mag
				}
				for j := range lfs {
					if lf := &lfs[j]; lf.lead == j {
						parts, vg, wz := b.incidence(i, lf.q)
						e.wb.IncidenceInto(&incs[lf.q], parts[0], parts[1], parts[2], gk, vg, wz)
					}
					answer(i, j, f)
				}
				continue
			}
			if len(s) == 0 {
				continue // the basis matrix is the row's, singular here
			}
		}
		row.Factored++
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
			if lf := &lfs[j]; lf.lead == j {
				d := &lf.delta
				incidences++
				if incs[lf.q], err = e.rank1.SolveIncidence(d.UIdx, d.UVal, d.VIdx, d.VVal, k); err != nil {
					return nil, err
				}
			}
			answer(i, j, f)
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
