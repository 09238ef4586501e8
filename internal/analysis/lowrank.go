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

// lowRankFault is a fault pre-lowered to the rank-1 matrix delta its
// in-place patch would stamp: NewBasis resolves the patch target once
// (prepareLowRank), and SweepLowRank then answers the fault at every grid
// point from the basis via Sherman–Morrison.
type lowRankFault struct {
	delta mna.RankOne

	// The basis's grouping: lead is the index of the first fault with this
	// fault's incidence (u, v), and q that incidence's number.
	lead, q int
}

// prepareLowRank lowers the fault to its rank-1 delta into lf, without
// touching the live system and without allocating. Faults that cannot
// patch at all propagate fault.ErrNotPatchable; patchable faults whose
// stamp delta is not a single outer product (opamp models, source
// amplitudes) propagate mna.ErrNotLowRank, and callers fall back to
// ApplyFault.
func (e *Engine) prepareLowRank(f fault.Fault, lf *lowRankFault) error {
	name, v, err := f.PatchValue(e.driven)
	if err != nil {
		return err
	}
	return e.sys.RankOneDeltaInto(name, v, &lf.delta)
}

// LowRankRow is what one SweepLowRank walk measures on a configuration.
// Every response shares the basis grid as its Freqs. The caller owns it:
// a walk overwrites every field and reuses the storage of the walk
// before, so a worker keeps one for all its rows.
type LowRankRow struct {
	// Nominal is the nominal response.
	Nominal *Response
	// Faulty[j] is the response of the basis's rank-1 fault j (Slots maps
	// the fault list onto j), answered against the same per-point nominal.
	// A point the identity cannot answer — the nominal matrix is singular
	// there, the basis cannot answer it, or the update denominator
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
	// solve, and NominalSpread[i] is then the magnitude of that
	// correction's sum (numeric.Woodbury.Nominal), which bounds its
	// rounding. Both are nil for a row without followers.
	Approx        []bool
	NominalSpread []float64
	// Factored is the number of points the basis could not answer, at
	// which a row with followers solved its own nominal.
	Factored int

	nominal Response
	// The slabs the responses, the spreads and Approx are carved from.
	hs     []complex128
	valid  []bool
	spread []float64
	approx []bool
}

// reset sizes the row for a walk of nf faults over grid, every value
// zero and every point invalid; approx says whether the walk corrects
// its nominal (a row with followers).
func (row *LowRankRow) reset(grid []float64, nf int, approx bool) {
	np := len(grid)
	row.hs = resize(row.hs, (nf+1)*np)
	row.valid = resize(row.valid, (nf+1)*np)
	row.nominal = Response{Freqs: grid, H: row.hs[:np:np], Valid: row.valid[:np:np]}
	row.Nominal = &row.nominal
	row.Faulty = resize(row.Faulty, nf)
	for j := range row.Faulty {
		seg := (j + 1) * np
		row.Faulty[j] = Response{Freqs: grid, H: row.hs[seg : seg+np : seg+np], Valid: row.valid[seg : seg+np : seg+np]}
	}
	spreads := nf * np
	if approx {
		spreads += np
	}
	row.spread = resize(row.spread, spreads)
	row.Spread, row.Approx, row.NominalSpread = row.spread[:nf*np:nf*np], nil, nil
	if approx {
		row.approx = resize(row.approx, np)
		row.Approx, row.NominalSpread = row.approx, row.spread[nf*np:]
	}
	row.Factored = 0
}

// resize returns s with length n and every element zero, reusing its
// storage when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// SweepLowRank walks the basis grid once and answers, at every point, the
// engine's nominal and every rank-1 fault of the basis, into row. The
// engine's matrix must be the basis matrix with the chain opamps listed
// in s (indices into the basis chain) in follower mode: the basis's
// engine or a fork of it switched there (SetFollowers), or an engine of
// the configured circuit. Where the basis point holds, the walk reads the
// nominal and each incidence (u, v) from it through a Woodbury
// correction — none with an empty s, whose values are the basis's bits
// — and answers each fault of the incidence's group in a few operations
// (Incidence.Entry). Where A₀ is singular or the correction's
// capacitance matrix fails its screen (numeric.Woodbury.Factor), a row
// with followers solves its own nominal alone and leaves every fault
// unanswered there.
//
// ctx is checked once per point; a cancelled walk returns ctx's error.
// The engine is nominal when this returns.
func (e *Engine) SweepLowRank(ctx context.Context, b *Basis, s []int, row *LowRankRow) error {
	if e.sys.Patched() {
		return fmt.Errorf("%w: low-rank sweep on a patched system", ErrBadSweep)
	}
	grid, lfs := b.grid, b.lfs
	np := len(grid)
	row.reset(grid, len(lfs), len(s) > 0)
	var solves int64
	defer func() { eLowRankSolves.Add(solves) }()
	defer e.sw.FlushMetrics()
	e.incs = resize(e.incs, b.ni)
	incs := e.incs
	for i, f := range grid {
		if err := ctx.Err(); err != nil {
			return err
		}
		y0k, gk, wy, m := b.point(i)
		if !b.ok(i) || !e.wb.Factor(m, b.nc, s) {
			if len(s) == 0 {
				continue // the basis matrix is the row's, singular here
			}
			row.Factored++
			v, err := e.sw.VoltageAt(f)
			if err != nil {
				if errors.Is(err, numeric.ErrSingular) {
					continue // the nominal stays invalid here
				}
				return err
			}
			row.Nominal.H[i], row.Nominal.Valid[i] = v, true
			continue
		}
		yk, mag := e.wb.Nominal(y0k, gk, wy)
		if e.nodeIdx >= 0 {
			row.Nominal.H[i] = yk
		}
		row.Nominal.Valid[i] = true
		if row.Approx != nil {
			row.Approx[i], row.NominalSpread[i] = true, mag
		}
		for j := range lfs {
			lf := &lfs[j]
			inc := &incs[lf.q]
			if lf.lead == j {
				parts, vg, wz := b.incidence(i, lf.q)
				e.wb.IncidenceInto(inc, parts[0], parts[1], parts[2], gk, vg, wz)
			}
			sc := lf.delta.ScaleAt(f)
			solves++
			h, cz, err := inc.Entry(sc)
			if err != nil {
				continue // numeric.ErrSingularUpdate: left for the tail
			}
			// A ground output reads 0 at every valid point, as in SweepGrid;
			// the update still runs so its singularity verdict holds.
			if e.nodeIdx < 0 {
				h, cz = 0, 0
			}
			row.Faulty[j].H[i] = h
			row.Faulty[j].Valid[i] = true
			row.Spread[j*np+i] = numeric.Abs1(cz) + inc.Rounding(sc)
		}
	}
	return nil
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
