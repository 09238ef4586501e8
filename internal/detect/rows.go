package detect

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"analogdft/internal/analysis"
	"analogdft/internal/circuit"
	"analogdft/internal/fault"
	"analogdft/internal/obs"
)

// guardBand is τ, the relative band around each decision boundary inside
// which the row walk does not trust a Sherman–Morrison answer. A
// grid point's verdict turns on rel > thr and, below the measurement
// floor, on |H| ≤ floor; the rank-1 answer and the patch's refactorization
// agree only within rounding, so where rel lies within τ·(|H| + |c·z|)/den
// of thr, or |H| within τ·(|H| + |c·z|) of the floor, the point is
// re-solved under the patch. Over 18.1M grid points (the library benches
// and a six-opamp chain, deviation and bipolar universes at fault sizes
// 0.10–0.30, 241 points) the two solves differed by at most 1.28e-10·ε
// in rel and 2.5e-12 relative in |H|, never in validity, so τ leaves four
// orders of margin while re-solving 0.28% of points. The same band bounds
// how far any settled point's rel can move under the patch, which is what
// the MaxDev guard relies on (tail.resolve).
const guardBand = 1e-6

// rowSpec is one configuration row of an evaluation: the circuit, its
// grid, and how spans and errors name it.
type rowSpec struct {
	ckt   *circuit.Circuit
	grid  []float64
	label string
	// what names the row in nominal errors; it is called only on failure.
	what func() string
	// maxDev marks a row that reports MaxDev: its tail also re-solves
	// under the patch every point that could hold a cell's peak deviation
	// (tail.resolve). Matrix rows discard MaxDev and skip that guard.
	maxDev bool
}

// rowRunner evaluates the cells of one or more configuration rows, one
// row per task. The worker that claims row i builds one engine and walks
// the grid once (analysis.Engine.SweepLowRank): at each point it factors
// the nominal matrix, takes the nominal response from that solve and
// answers every rank-1 fault of the row against the same factorization.
// The row's cell tail then settles each cell in fault order (cell), so a
// row writes only its own evaluation slots and needs no locking beyond
// the tracker's. Rows are claimed in ascending order; a row whose nominal
// phase fails stops every row above it from starting, and rows below it
// still finish theirs, so the error reported is always the lowest failing
// row's.
type rowRunner struct {
	opts   Options
	faults fault.List
	spec   func(i int) (rowSpec, error)
	evals  []FaultEval
	errs   []error
	tr     *tracker
	// lowest is the lowest row index whose nominal phase has failed so far
	// (the row count while none has).
	lowest atomic.Int64
	// stop is set by the first failed cell under FailFast. Rows still run
	// their nominal phase, whose errors outrank every cell error, but
	// settle no further cells.
	stop atomic.Bool
}

// newRowRunner prepares an evaluation of rows configuration rows over the
// fault list; spec builds row i. opts is already normalized.
func newRowRunner(rows int, faults fault.List, opts Options, spec func(i int) (rowSpec, error)) *rowRunner {
	rr := &rowRunner{
		opts:   opts,
		faults: faults,
		spec:   spec,
		evals:  make([]FaultEval, rows*len(faults)),
		errs:   make([]error, rows),
		tr:     newTracker(rows, len(faults), opts.Progress),
	}
	rr.lowest.Store(int64(rows))
	return rr
}

// run evaluates every row under one detect.cells span and returns the
// evaluations in row-major cell order, with the tracker holding their
// merged effort. A cancelled ctx returns ctx's error; otherwise the
// lowest failing row's nominal error, if any. Under FailFast, cells never
// reached keep a zero evaluation.
func (rr *rowRunner) run(ctx context.Context) ([]FaultEval, *tracker, error) {
	cellsCtx, cellSpan := obs.Start(ctx, "detect.cells")
	cellSpan.SetTag("cells", fmt.Sprint(len(rr.evals)))
	runParallel(cellsCtx, len(rr.errs), rr.opts.Workers, func(cctx context.Context, i int) {
		if int64(i) > rr.lowest.Load() {
			return
		}
		if err := rr.row(cctx, i); err != nil {
			rr.errs[i] = err
			for {
				cur := rr.lowest.Load()
				if int64(i) >= cur || rr.lowest.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
		}
	})
	cellSpan.End()
	if err := ctx.Err(); err != nil {
		dCancelled.Inc()
		return nil, nil, err
	}
	for _, err := range rr.errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return rr.evals, rr.tr, nil
}

// row evaluates configuration row i under one detect.config span and
// returns its nominal-phase error, if any.
func (rr *rowRunner) row(ctx context.Context, i int) error {
	sp, err := rr.spec(i)
	if err != nil {
		return err
	}
	ctx, span := obs.Start(ctx, "detect.config")
	span.SetTag("config", sp.label)
	defer span.End()
	eng, err := analysis.NewEngine(sp.ckt)
	if err != nil {
		return fmt.Errorf("detect: nominal sweep of %s: %w", sp.what(), err)
	}
	nf := len(rr.faults)
	// slot[j] is fault j's index in lfs, or -1 where its first rung is
	// not rank-1. After a FailFast stop the walk is the nominal alone.
	var lfs []analysis.LowRankFault
	var slot []int
	if rr.opts.first == "" && !rr.stop.Load() {
		lfs = make([]analysis.LowRankFault, nf)
		slot = make([]int, nf)
		n := 0
		for j, f := range rr.faults {
			slot[j] = -1
			if eng.PrepareLowRank(f, &lfs[n]) == nil {
				slot[j] = n
				n++
			}
		}
		lfs = lfs[:n]
	}
	timed := obs.TimingOn()
	var t0 time.Time
	if timed {
		t0 = obs.Now()
	}
	walk, err := eng.SweepLowRank(ctx, sp.grid, lfs)
	if err != nil {
		return fmt.Errorf("detect: nominal sweep of %s: %w", sp.what(), err)
	}
	// A rank-1 cell's latency is its share of the walk plus its own tail.
	var walkShare float64
	if timed && len(lfs) > 0 {
		walkShare = obs.Since(t0).Seconds() / float64(len(lfs))
	}
	nominal := walk.Nominal
	st, err := retryNominal(eng, nominal, rr.opts)
	if err != nil {
		return fmt.Errorf("detect: nominal retry of %s: %w", sp.what(), err)
	}
	rr.tr.nominal(i, st)

	t := tail{
		rr:       rr,
		eng:      eng,
		sp:       sp,
		nominal:  nominal,
		floorAbs: analysis.FloorAbs(nominal, rr.opts.MeasFloor),
	}
	np := len(sp.grid)
	for j, f := range rr.faults {
		if rr.stop.Load() || ctx.Err() != nil {
			break
		}
		var c0 time.Time
		if timed {
			c0 = obs.Now()
		}
		var resp *analysis.Response
		var spread []float64
		if slot != nil && slot[j] >= 0 {
			resp = &walk.Faulty[slot[j]]
			spread = walk.Spread[slot[j]*np : (slot[j]+1)*np]
		}
		eval, cst, r := t.cell(ctx, f, resp, spread)
		k := i*nf + j
		rr.evals[k] = eval
		if eval.Err != nil && rr.opts.OnError == FailFast {
			rr.stop.Store(true)
		}
		rr.tr.complete(k, cst)
		if timed {
			el := obs.Since(c0).Seconds()
			if r == rungRank1 {
				el += walkShare
			}
			observeCell(ctx, el, r)
		}
	}
	t.flush()
	return nil
}

// tail is one row's cell tail: the row's engine and nominal, the reused
// re-solve list and the row's re-solve tallies.
type tail struct {
	rr       *rowRunner
	eng      *analysis.Engine
	sp       rowSpec
	nominal  *analysis.Response
	floorAbs float64
	pts      []int
	// rank1 counts cells answered on the rank-1 rung; refactors and
	// guarded count their re-solved points by cause.
	rank1, refactors, guarded int64
}

// flush publishes the row's rank-1 tallies: properties of the cell set,
// identical for any worker count.
func (t *tail) flush() {
	dRank1Cells.Add(t.rank1)
	dLowRankRefactors.Add(t.refactors)
	dGuardResolves.Add(t.guarded)
}

// cell is the row tail's cell pipeline, response → retry → score, for
// fault f. resp, when non-nil, is f's rank-1 answer from the walk (spread
// its cancellation bounds): the points Sherman–Morrison could not answer
// and those whose verdict — or, on a MaxDev row, whose peak — it could
// not settle are re-solved under an in-place patch of f, after which resp
// holds the patch rung's response bit for bit at every point that can
// decide the cell. Without a rank-1 answer, f climbs the patch → clone
// ladder.
func (t *tail) cell(ctx context.Context, f fault.Fault, resp *analysis.Response, spread []float64) (FaultEval, cellStats, rung) {
	eval := FaultEval{Fault: f}
	var st cellStats
	r := rungPatch
	if resp != nil {
		r = rungRank1
	}
	err := func() error {
		if t.nominal.ValidCount() == 0 {
			return allInvalid(t.sp.ckt)
		}
		eng := t.eng
		if resp != nil {
			t.rank1++
			// A re-solve leaves f patched in for the retry; Reset restores
			// the row's engine to nominal for the next cell.
			defer eng.Reset()
			if err := t.resolve(f, resp, spread); err != nil {
				return err
			}
		} else {
			if t.rr.opts.first == rungClone {
				eng = nil
			}
			var err error
			eng, resp, r, err = ladder(ctx, eng, t.sp.ckt, f, t.sp.grid)
			if eng != nil {
				defer eng.Reset()
			}
			if err != nil {
				return err
			}
		}
		return t.finish(ctx, eng, f, resp, &eval, &st)
	}()
	if err != nil {
		eval.Err = err
		st.err = true
	}
	return eval, st, r
}

// finish is the tail of the cell pipeline, retry → score: eng holds f's
// faulty state and resp its response over the row's grid. It accounts the
// cell's solves — the whole grid, whichever rung and however many
// factorizations produced resp, plus any retries.
func (t *tail) finish(ctx context.Context, eng *analysis.Engine, f fault.Fault, resp *analysis.Response, eval *FaultEval, st *cellStats) error {
	opts := t.rr.opts
	st.solves += len(t.sp.grid)
	if needsRetry(resp, opts) {
		// The engine holds the faulty state, so the jittered re-solves run
		// on the faulty system whichever rung produced resp.
		rs := retrySpan(ctx, f, resp.InvalidCount())
		recovered, solves, err := eng.RetrySingularPoints(resp, opts.MaxRetries)
		endRetrySpan(rs, recovered)
		st.retries += solves
		st.solves += solves
		st.recovered += recovered
		if err != nil {
			return err
		}
	}
	st.singular += resp.InvalidCount()
	return t.score(eval, resp)
}

// score fills eval's verdict from a faulty response measured against the
// row's nominal, point by point as RelativeDeviation measures it:
// Definition 1 detectability, the ω-detectability percentage (the share
// of grid points deviating beyond their threshold) and the peak deviation
// MaxDev, with +Inf reported as math.MaxFloat64.
func (t *tail) score(eval *FaultEval, resp *analysis.Response) error {
	if err := analysis.SameGrid(t.nominal, resp); err != nil {
		return err
	}
	n, peak := 0, 0.0
	for i, h := range resp.H {
		rel, _, _ := analysis.PointDeviation(t.nominal.H[i], h, t.nominal.Valid[i], resp.Valid[i], t.floorAbs)
		if rel > t.rr.opts.thresholdAt(i) {
			n++
		}
		if rel > peak {
			peak = rel
		}
	}
	eval.Detectable = n > 0
	eval.OmegaDet = 100 * float64(n) / float64(len(t.sp.grid))
	eval.MaxDev = peak
	if math.IsInf(peak, 1) {
		eval.MaxDev = math.MaxFloat64
	}
	return nil
}

// resolve re-solves, with f patched into the row's engine, the points of
// f's rank-1 response the tail cannot take as answered, leaving the patch
// in place when there were any. A first pass lists the points the
// identity could not answer and those the ε/floor guard cannot settle
// (settle). On a MaxDev row a second pass adds every other point whose
// rel, plus its band, reaches the cut: the largest rel − band over the
// settled points. The patch's peak is at least the cut, and a point left
// out lies below it even under the patch, so the peak is at a re-solved
// point and MaxDev carries the patch rung's bits.
func (t *tail) resolve(f fault.Fault, resp *analysis.Response, spread []float64) error {
	t.pts = t.pts[:0]
	cut := math.Inf(-1)
	for i, ok := range resp.Valid {
		if !ok {
			t.pts = append(t.pts, i)
			t.refactors++
			continue
		}
		rel, band, unsettled := t.settle(i, resp.H[i], spread[i])
		if unsettled {
			t.pts = append(t.pts, i)
			t.guarded++
		} else if rel-band > cut {
			cut = rel - band
		}
	}
	if t.sp.maxDev {
		// pts is ascending, so next walks it alongside the grid.
		listed, next := len(t.pts), 0
		for i := range resp.Valid {
			if next < listed && t.pts[next] == i {
				next++
				continue
			}
			if rel, band, _ := t.settle(i, resp.H[i], spread[i]); rel+band >= cut {
				t.pts = append(t.pts, i)
				t.guarded++
			}
		}
	}
	if len(t.pts) == 0 {
		return nil
	}
	if err := t.eng.ApplyFault(f); err != nil {
		return err
	}
	return t.eng.ResolvePoints(resp, t.pts)
}

// settle scores grid point i of a valid rank-1 answer h as
// RelativeDeviation scores it and returns its rel, the band within which
// the patch's rel lies (see guardBand), and whether rounding could decide
// the point differently from the patch: h lies within guardBand of the
// threshold or of the measurement floor. Non-finite answers are
// unsettled.
func (t *tail) settle(i int, h complex128, spread float64) (rel, band float64, unsettled bool) {
	rel, mf, den := analysis.PointDeviation(t.nominal.H[i], h, t.nominal.Valid[i], true, t.floorAbs)
	abs := guardBand * (mf + spread)
	band = abs / den
	if den == t.floorAbs {
		// The nominal is at or below the floor (den = max(|Hn|, floor)),
		// and both magnitudes there read as no deviation.
		if !(math.Abs(mf-t.floorAbs) > abs) {
			return rel, band, true
		}
		if mf <= t.floorAbs {
			return rel, band, false
		}
	}
	return rel, band, !(math.Abs(rel-t.rr.opts.thresholdAt(i)) > band)
}
