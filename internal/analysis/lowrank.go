package analysis

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"analogdft/internal/fault"
	"analogdft/internal/mna"
	"analogdft/internal/numeric"
	"analogdft/internal/obs"
)

// lowRankGrid caches, per grid point, the LU factorization of the nominal
// MNA matrix together with its pre-solved excitation, plus the solution
// scratch shared by every fault sweep. Building it costs the same
// factorizations the nominal sweep already pays; afterwards every rank-1
// fault solves the whole grid with two triangular solves per point.
type lowRankGrid struct {
	grid    []float64
	solvers []*numeric.LowRankSolver // nil where the nominal matrix is singular
	x       []complex128             // solution scratch shared by every fault sweep

	// Arenas backing the detached sparse factors (one growable segment
	// store per element type); held so the storage lives exactly as long
	// as the solvers addressing it.
	i32Arena  []int32
	cplxArena []complex128
	pivArena  []int
}

// LowRankFault is a fault pre-lowered to the rank-1 matrix delta its
// in-place patch would stamp: PrepareLowRank resolves the patch target
// once, and SweepLowRank then solves every grid point against the cached
// nominal factorizations via Sherman–Morrison. Component and Value are
// retained so the per-point fallback can replay the fault as an ordinary
// SetValue patch when the update is singular.
type LowRankFault struct {
	Component string
	Value     float64
	delta     mna.RankOne
}

// PrepareLowRank lowers the fault to its rank-1 delta without touching the
// live system. Faults that cannot patch at all propagate
// fault.ErrNotPatchable; patchable faults whose stamp delta is not a
// single outer product (opamp models, source amplitudes) propagate
// mna.ErrNotLowRank, and callers fall back to ApplyFault/SweepFault.
func (e *Engine) PrepareLowRank(f fault.Fault) (*LowRankFault, error) {
	name, v, err := f.PatchValue(e.driven)
	if err != nil {
		return nil, err
	}
	delta, err := e.sys.RankOneDelta(name, v)
	if err != nil {
		return nil, err
	}
	return &LowRankFault{Component: name, Value: v, delta: delta}, nil
}

// ensureLowRank builds (or reuses) the nominal per-point factorization
// cache for the grid. The engine must be nominal: the cache is the
// unpatched matrix, and every fault is expressed as a delta against it.
//
// Each point is factored in the engine's workspace scratch and the
// compact factors are detached into the grid's shared arenas —
// O(nnz(L)+nnz(U)) retained per point — while the symbolic pattern work
// is done once by the scratch and reused across the whole ω grid.
func (e *Engine) ensureLowRank(grid []float64) error {
	if e.lr != nil && slices.Equal(e.lr.grid, grid) {
		return nil
	}
	timed := obs.TimingOn()
	if timed {
		// The grid cache is built lazily by whichever worker's first cell
		// lands here, so the span is schedule-dependent — timing-gated,
		// like the factor counter below.
		_, fs := obs.Start(e.traceContext(), "lowrank.factor_grid")
		fs.SetTag("points", strconv.Itoa(len(grid)))
		defer fs.End()
	}
	pat, err := e.sys.Pattern()
	if err != nil {
		return err
	}
	n := e.sys.N()
	lr := &lowRankGrid{
		grid:    append([]float64(nil), grid...),
		solvers: make([]*numeric.LowRankSolver, len(grid)),
		x:       make([]complex128, n),
	}
	// Borrow the sweeper's workspace: each factor is detached into the
	// arenas before the next point, so nothing here outlives a later
	// VoltageAt, and the warmup (value slab, scratch slabs) is paid once
	// per engine instead of once per path.
	ws := e.sw.Workspace()
	ws.EnsureSparse(pat)
	// Pre-size the arenas from the scratch's fill estimate so the grid's
	// detaches are plain copies instead of O(log points) append regrowth;
	// a grid whose factors outgrow the estimate just falls back to
	// amortized append. The per-point pre-solved excitations live in the
	// complex arena too (the +n term), so the whole cache is three
	// allocations.
	est := 2*pat.NNZ() + 2*n
	lr.i32Arena = make([]int32, 0, len(grid)*(2*(n+1)+est))
	lr.cplxArena = make([]complex128, 0, len(grid)*(est+3*n))
	lr.pivArena = make([]int, 0, len(grid)*n)
	for i, f := range grid {
		if err := e.sys.AssembleValsInto(f, ws.SVals, ws.RHS); err != nil {
			return err
		}
		if timed {
			eLowRankFactors.Inc()
		}
		lu, err := ws.SparseFactor()
		if err != nil {
			if errors.Is(err, numeric.ErrSingular) {
				continue // solver stays nil; the per-point fallback decides
			}
			return err
		}
		// Reserve the solution segment in the arena; copy overwrites all
		// of it, so no zeroing is needed on the in-capacity path.
		ystart := len(lr.cplxArena)
		if cap(lr.cplxArena)-ystart >= n {
			lr.cplxArena = lr.cplxArena[:ystart+n]
		} else {
			lr.cplxArena = append(lr.cplxArena, make([]complex128, n)...)
		}
		y := lr.cplxArena[ystart : ystart+n : ystart+n]
		copy(y, ws.RHS)
		if err := lu.SolveInPlace(y); err != nil {
			return err
		}
		solver, err := numeric.NewLowRankSolver(
			lu.Detach(&lr.i32Arena, &lr.cplxArena, &lr.pivArena), y)
		if err != nil {
			return err
		}
		lr.solvers[i] = solver
	}
	e.lr = lr
	return nil
}

// SweepLowRank measures the fault's response over the grid via
// Sherman–Morrison against the cached nominal factorizations — O(n²) per
// point instead of the O(n³) refactorization SweepFault pays. Points the
// identity cannot answer — the nominal matrix itself was singular there,
// or the rank-1 denominator vanished (numeric.ErrSingularUpdate, meaning
// the patched matrix is near-singular) — fall back to a full patched
// refactorization through the ordinary SetValue path, which reproduces
// the reference path's singularity verdict exactly; points singular under
// both are left invalid, as SweepGrid would. The engine is nominal when
// this returns.
func (e *Engine) SweepLowRank(lf *LowRankFault, grid []float64) (*Response, error) {
	if len(grid) == 0 {
		return nil, fmt.Errorf("%w: empty grid", ErrBadSweep)
	}
	if e.sys.Patched() {
		return nil, fmt.Errorf("%w: low-rank sweep on a patched system", ErrBadSweep)
	}
	if err := e.ensureLowRank(grid); err != nil {
		return nil, err
	}
	lr := e.lr
	resp := &Response{
		Freqs: append([]float64(nil), grid...),
		H:     make([]complex128, len(grid)),
		Valid: make([]bool, len(grid)),
	}
	var fallback []int
	var solves int64
	for i, f := range grid {
		solver := lr.solvers[i]
		if solver == nil {
			fallback = append(fallback, i)
			continue
		}
		solves++
		// The incidence factors carry at most two entries each, so the
		// rank-1 product runs on their sparse form.
		d := &lf.delta
		if err := solver.SolveRankOneSparse(d.ScaleAt(f), d.UIdx, d.UVal, d.VIdx, d.VVal, lr.x); err != nil {
			if errors.Is(err, numeric.ErrSingularUpdate) {
				fallback = append(fallback, i)
				continue
			}
			eLowRankSolves.Add(solves)
			return nil, err
		}
		if e.nodeIdx >= 0 {
			resp.H[i] = lr.x[e.nodeIdx]
		}
		resp.Valid[i] = true
	}
	eLowRankSolves.Add(solves)
	if len(fallback) == 0 {
		return resp, nil
	}
	if err := e.sys.SetValue(lf.Component, lf.Value); err != nil {
		return nil, err
	}
	defer e.Reset()
	defer e.sw.FlushMetrics()
	// Which points fall back is a numeric property of the cell, not of
	// the schedule, so this marker span is always recorded.
	_, rs := obs.Start(e.traceContext(), "lowrank.refactor")
	rs.SetTag("component", lf.Component)
	rs.SetTag("points", strconv.Itoa(len(fallback)))
	defer rs.End()
	for _, i := range fallback {
		eLowRankRefactors.Inc()
		v, err := e.sw.VoltageAt(grid[i])
		if err != nil {
			if errors.Is(err, numeric.ErrSingular) {
				continue // singular under the patch too: leave invalid
			}
			return nil, err
		}
		resp.H[i] = v
		resp.Valid[i] = true
	}
	return resp, nil
}
