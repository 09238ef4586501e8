package detect

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"slices"
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
	// ckt is the row's circuit. A matrix row that reads the shared basis
	// runs on its worker's switched engine and leaves it nil until
	// something needs it — the clone rung, the patch and clone oracles,
	// an error message — which then builds it once (circuit).
	ckt       *circuit.Circuit
	configure func() (*circuit.Circuit, error)
	grid      []float64
	// followers lists the chain opamps the row puts in follower mode, as
	// indices into the basis chain (rowRunner.basis); empty for the basis
	// circuit itself.
	followers []int
	// name is the name of the row's circuit, which a switched engine's
	// solve errors report (analysis.Engine.SetFollowers).
	name  string
	label string
	// what names the row in nominal errors; it is called only on failure.
	what func() string
	// maxDev marks a row that reports MaxDev: its tail also re-solves
	// under the patch every point that could hold a cell's peak deviation
	// (tail.resolve). Matrix rows discard MaxDev and skip that guard.
	maxDev bool
}

// circuit returns the row's circuit, building it on first use.
func (sp *rowSpec) circuit() (*circuit.Circuit, error) {
	if sp.ckt == nil {
		ckt, err := sp.configure()
		if err != nil {
			return nil, err
		}
		sp.ckt = ckt
	}
	return sp.ckt, nil
}

// rowRunner evaluates the cells of one or more configuration rows, one
// row per task. The worker that claims row i walks the grid of a basis
// once (analysis.Engine.SweepLowRank): at each point it reads the row's
// nominal and answers every rank-1 fault of the row, from the shared
// basis through a Woodbury correction, or from a basis of the row's own
// matrix when there is no shared one (walk). The row's cell tail then
// settles each cell in fault order (cell), so a row writes only its own
// evaluation slots and needs no locking beyond the tracker's. A worker
// runs every row it claims on one engine — the shared basis's own when it
// is the only worker, else a fork of it — switched to each row's
// configuration, and reuses the walk and the tail's scratch (worker).
// Rows are claimed in ascending order; a row whose nominal phase fails
// stops every row above it from starting, and rows below it still finish
// theirs, so the error reported is always the lowest failing row's.
type rowRunner struct {
	opts   Options
	faults fault.List
	spec   func(i int) (rowSpec, error)
	// basis, when non-nil, is the per-ω basis every row reads (newBasis),
	// built over the rows' shared grid for the same fault list; when nil,
	// each row builds its own.
	basis *analysis.Basis
	// ws[w] is worker w's state.
	ws    []worker
	evals []FaultEval
	errs  []error
	tr    *tracker
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
		ws:     make([]worker, min(max(opts.Workers, 1), rows)),
		evals:  make([]FaultEval, rows*len(faults)),
		errs:   make([]error, rows),
		tr:     newTracker(rows, len(faults), opts.Progress),
	}
	rr.lowest.Store(int64(rows))
	return rr
}

// worker is what one worker keeps across the rows it claims: the engine
// it runs them on, taken by its first row from the shared basis (walk),
// the walk it writes each row into, and the row tail's scratch.
type worker struct {
	eng  *analysis.Engine
	walk analysis.LowRankRow
	tail tail
}

// newBasis builds and fills the basis of ckt — A₀, with the configurable
// opamps of chain — over grid for the fault list, one ω chunk per worker,
// under one detect.basis span, and returns it, or what failed: the first
// failing chunk's error, else ctx's.
func newBasis(ctx context.Context, ckt *circuit.Circuit, chain []string, grid []float64, faults fault.List, workers int) (*analysis.Basis, error) {
	ctx, span := obs.Start(ctx, "detect.basis")
	defer span.End()
	b, err := analysis.NewBasis(ckt, chain, grid, faults)
	if err != nil {
		return nil, err
	}
	// One chunk fills in place; more run over the worker pool.
	if chunks := min(workers, len(grid)); chunks == 1 {
		err = b.Fill(ctx, 0, 1)
	} else {
		errs := make([]error, chunks)
		runParallel(ctx, chunks, workers, func(cctx context.Context, _, c int) {
			errs[c] = b.Fill(cctx, c, chunks)
		})
		err = cmp.Or(errs...)
	}
	if err = cmp.Or(err, ctx.Err()); err != nil {
		return nil, err
	}
	return b, nil
}

// run evaluates every row under one detect.cells span and returns the
// evaluations in row-major cell order, with the tracker holding their
// merged effort. A cancelled ctx returns ctx's error; otherwise the
// lowest failing row's nominal error, if any. Under FailFast, cells never
// reached keep a zero evaluation.
func (rr *rowRunner) run(ctx context.Context) ([]FaultEval, *tracker, error) {
	cellsCtx, cellSpan := obs.Start(ctx, "detect.cells")
	cellSpan.SetTag("cells", fmt.Sprint(len(rr.evals)))
	runParallel(cellsCtx, len(rr.errs), rr.opts.Workers, func(cctx context.Context, w, i int) {
		if int64(i) > rr.lowest.Load() {
			return
		}
		if err := rr.row(cctx, &rr.ws[w], i); err != nil {
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

// row evaluates configuration row i on worker w under one detect.config
// span and returns its nominal-phase error, if any.
func (rr *rowRunner) row(ctx context.Context, w *worker, i int) error {
	sp, err := rr.spec(i)
	if err != nil {
		return err
	}
	ctx, span := obs.Start(ctx, "detect.config")
	span.SetTag("config", sp.label)
	defer span.End()
	timed := obs.TimingOn()
	var t0 time.Time
	if timed {
		t0 = obs.Now()
	}
	eng, walk, slot, err := rr.walk(ctx, w, &sp)
	if err != nil {
		return fmt.Errorf("detect: nominal sweep of %s: %w", sp.what(), err)
	}
	// A rank-1 cell's latency is its share of the walk plus its own tail.
	var walkShare float64
	if timed && len(walk.Faulty) > 0 {
		walkShare = obs.Since(t0).Seconds() / float64(len(walk.Faulty))
	}
	nf := len(rr.faults)
	nominal := walk.Nominal
	st, err := retryNominal(eng, nominal, rr.opts)
	if err != nil {
		return fmt.Errorf("detect: nominal retry of %s: %w", sp.what(), err)
	}
	rr.tr.nominal(i, st)

	np := len(sp.grid)
	t := &w.tail
	*t = tail{
		rr:      rr,
		eng:     eng,
		sp:      &sp,
		nominal: nominal,
		mag:     append(t.mag[:0], make([]float64, np)...),
		rel:     append(t.rel[:0], make([]float64, np)...),
		approx:  walk.Approx,
		nspread: walk.NominalSpread,
		pts:     slices.Grow(t.pts[:0], np),
		npts:    t.npts[:0],
		own:     int64(walk.Factored),
	}
	for i, ok := range nominal.Valid {
		if ok {
			t.mag[i] = cmplx.Abs(nominal.H[i])
		}
	}
	if t.floorAbs, err = t.exactFloor(); err != nil {
		return fmt.Errorf("detect: nominal sweep of %s: %w", sp.what(), err)
	}
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

// walk returns the engine row sp runs its tail on, the row's walk — its
// nominal and the rank-1 answers of the basis it read — and that basis's
// slots. A row reads the shared basis on worker w's engine, switched to
// the row's followers, and writes its walk into w's: the basis's own
// engine when w is the only worker, which then has it to itself, and a
// fork of it otherwise. Without a shared basis (PerConfigRegion, or the
// shared basis failed) it reads a chain-less basis of its own circuit
// over its own grid, on that basis's engine. The patch/clone oracle rows
// take their nominal from SweepGrid on an engine of the configured
// circuit and never build or read a basis, so the oracles stay
// independent of both; their walk counts every point as factored, and
// their slots are nil.
func (rr *rowRunner) walk(ctx context.Context, w *worker, sp *rowSpec) (*analysis.Engine, *analysis.LowRankRow, []int, error) {
	if rr.opts.first != "" {
		ckt, err := sp.circuit()
		if err != nil {
			return nil, nil, nil, err
		}
		eng, err := analysis.NewEngine(ckt)
		if err != nil {
			return nil, nil, nil, err
		}
		nominal, err := eng.SweepGrid(sp.grid)
		if err != nil {
			return nil, nil, nil, err
		}
		return eng, &analysis.LowRankRow{Nominal: nominal, Factored: len(sp.grid)}, nil, nil
	}
	if b := rr.basis; b != nil {
		if w.eng == nil {
			eng := b.Engine()
			if len(rr.ws) > 1 {
				var err error
				if eng, err = eng.Fork(); err != nil {
					return nil, nil, nil, err
				}
			}
			w.eng = eng
		}
		if err := w.eng.SetFollowers(sp.name, sp.followers); err != nil {
			return nil, nil, nil, err
		}
		err := w.eng.SweepLowRank(ctx, b, sp.followers, &w.walk)
		return w.eng, &w.walk, b.Slots(), err
	}
	ckt, err := sp.circuit()
	if err != nil {
		return nil, nil, nil, err
	}
	b, err := newBasis(ctx, ckt, nil, sp.grid, rr.faults, 1)
	if err != nil {
		return nil, nil, nil, err
	}
	eng := b.Engine()
	err = eng.SweepLowRank(ctx, b, nil, &w.walk)
	return eng, &w.walk, b.Slots(), err
}

// tail is one row's cell tail: the row's engine and nominal, the reused
// re-solve lists and the row's re-solve tallies.
type tail struct {
	rr      *rowRunner
	eng     *analysis.Engine
	sp      *rowSpec
	nominal *analysis.Response
	// mag[i] is |nominal.H[i]| at every valid point.
	mag      []float64
	floorAbs float64
	// rel[i] is the cell's deviation at point i (score); resolve fills it
	// at every point it settles.
	rel []float64
	// approx[i] marks a nominal point a Woodbury correction formed, whose
	// rounding nspread[i] bounds (analysis.LowRankRow); exact clears the
	// mark. Both are nil for a row whose nominal is its own solve.
	approx  []bool
	nspread []float64
	pts     []int
	npts    []int
	// rank1 counts cells answered on the rank-1 rung; refactors and
	// guarded count their re-solved points by cause; own counts the
	// row's own nominal solves.
	rank1, refactors, guarded, own int64
}

// flush publishes the row's rank-1 tallies: properties of the cell set,
// identical for any worker count.
func (t *tail) flush() {
	dRank1Cells.Add(t.rank1)
	dLowRankRefactors.Add(t.refactors)
	dGuardResolves.Add(t.guarded)
	dConfigRefactors.Add(t.own)
}

// nomErr bounds how far the rounding of a Woodbury correction can have
// moved |Hn| at point i: guardBand·(|Hn| + its spread), zero where the
// nominal is the row's own solve.
func (t *tail) nomErr(i int) float64 {
	if t.approx == nil || !t.approx[i] {
		return 0
	}
	return guardBand * (t.mag[i] + t.nspread[i])
}

// exact makes the nominal at each listed point that a Woodbury correction
// formed the row's own solve — one solve of the row's matrix on the
// row's engine, which must be nominal — validity included.
func (t *tail) exact(pts []int) error {
	t.npts = t.npts[:0]
	for _, i := range pts {
		if t.approx != nil && t.approx[i] {
			t.approx[i] = false
			t.npts = append(t.npts, i)
		}
	}
	if len(t.npts) == 0 {
		return nil
	}
	t.own += int64(len(t.npts))
	if err := t.eng.ResolvePoints(t.nominal, t.npts); err != nil {
		return err
	}
	for _, i := range t.npts {
		t.mag[i] = cmplx.Abs(t.nominal.H[i])
	}
	return nil
}

// exactFloor returns the absolute measurement floor: MeasFloor times
// the nominal's peak. Where corrected points could hold the peak, the
// floor read off the corrected nominal may be off by MeasFloor times
// their largest band. That matters only if some nominal point could lie
// at or below the exact floor — elsewhere den = |Hn| and the floor
// decides no point — so only then are the corrected points that could
// hold the peak — those whose |Hn|, within its band, reaches the largest
// lower bound of any point's |Hn| — re-solved exactly, putting the peak
// at an exact point.
func (t *tail) exactFloor() (float64, error) {
	mf := t.rr.opts.MeasFloor
	floor := analysis.FloorAbs(t.nominal, mf)
	if t.approx == nil || mf <= 0 {
		return floor, nil
	}
	lo, off := math.Inf(-1), 0.0
	for i, ok := range t.nominal.Valid {
		if ok {
			e := t.nomErr(i)
			lo, off = max(lo, t.mag[i]-e), max(off, e)
		}
	}
	off *= mf
	clear := true
	for i, ok := range t.nominal.Valid {
		if ok && !(t.mag[i]-t.nomErr(i) > floor+off) {
			clear = false
			break
		}
	}
	if clear {
		return floor, nil
	}
	t.pts = t.pts[:0]
	for i, ok := range t.nominal.Valid {
		if ok && t.approx[i] && t.mag[i]+t.nomErr(i) >= lo {
			t.pts = append(t.pts, i)
		}
	}
	if err := t.exact(t.pts); err != nil {
		return 0, err
	}
	return analysis.FloorAbs(t.nominal, mf), nil
}

// cell is the row tail's cell pipeline, response → retry → score, for
// fault f. resp, when non-nil, is f's rank-1 answer from the walk (spread
// its cancellation bounds): the points Sherman–Morrison could not answer
// and those whose verdict — or, on a MaxDev row, whose peak — it could
// not settle are re-solved under an in-place patch of f, after which resp
// holds the patch rung's response bit for bit at every point that can
// decide the cell. Without a rank-1 answer, f climbs the patch → clone
// ladder. Either way, a corrected nominal point the answer's verdict
// could turn on is first made exact.
func (t *tail) cell(ctx context.Context, f fault.Fault, resp *analysis.Response, spread []float64) (FaultEval, cellStats, rung) {
	eval := FaultEval{Fault: f}
	var st cellStats
	r := rungPatch
	if resp != nil {
		r = rungRank1
	}
	err := func() error {
		if t.nominal.ValidCount() == 0 {
			ckt, err := t.sp.circuit()
			if err != nil {
				return err
			}
			return allInvalid(ckt)
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
			eng, resp, r, err = ladder(ctx, eng, t.sp, f)
			if eng != nil {
				defer eng.Reset()
			}
			if err != nil {
				return err
			}
		}
		return t.finish(ctx, eng, f, resp, r != rungRank1, &eval, &st)
	}()
	if err != nil {
		eval.Err = err
		st.err = true
	}
	return eval, st, r
}

// finish is the tail of the cell pipeline, retry → score: eng holds f's
// faulty state and resp its response over the row's grid, exact at every
// point when solved says so (a ladder rung answered it). It accounts the
// cell's solves — the whole grid, whichever rung and however many
// factorizations produced resp, plus any retries.
func (t *tail) finish(ctx context.Context, eng *analysis.Engine, f fault.Fault, resp *analysis.Response, solved bool, eval *FaultEval, st *cellStats) error {
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
	if solved && t.approx != nil {
		// Only the nominal's rounding can decide a point now.
		t.pts = t.pts[:0]
		for i, ok := range resp.Valid {
			if ok && t.approx[i] {
				if _, _, unsettled := t.settle(i, resp.H[i], 0, false); unsettled {
					t.pts = append(t.pts, i)
				}
			}
		}
		if len(t.pts) > 0 {
			// The faulty state is no longer needed.
			t.eng.Reset()
			if err := t.exact(t.pts); err != nil {
				return err
			}
		}
	}
	return t.score(eval, resp, !solved)
}

// score fills eval's verdict from a faulty response measured against the
// row's nominal, point by point as RelativeDeviation measures it:
// Definition 1 detectability, the ω-detectability percentage (the share
// of grid points deviating beyond their threshold) and the peak deviation
// MaxDev, with +Inf reported as math.MaxFloat64. A rank-1 answer comes
// with rel already scored by resolve at every point it did not list
// (settled); only the listed points, whose H or |Hn| the re-solves may
// have changed since, are scored again.
func (t *tail) score(eval *FaultEval, resp *analysis.Response, settled bool) error {
	if err := analysis.SameGrid(t.nominal, resp); err != nil {
		return err
	}
	rescore := func(i int) {
		t.rel[i], _, _ = analysis.MagDeviation(t.mag[i], resp.H[i], t.nominal.Valid[i], resp.Valid[i], t.floorAbs)
	}
	if settled {
		for _, i := range t.pts {
			rescore(i)
		}
	} else {
		for i := range resp.H {
			rescore(i)
		}
	}
	n, peak := 0, 0.0
	for i, rel := range t.rel {
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
// point and MaxDev carries the patch rung's bits. A corrected nominal at
// a listed point is made exact first.
func (t *tail) resolve(f fault.Fault, resp *analysis.Response, spread []float64) error {
	t.pts = t.pts[:0]
	cut := math.Inf(-1)
	for i, ok := range resp.Valid {
		if !ok {
			t.pts = append(t.pts, i)
			t.refactors++
			continue
		}
		rel, band, unsettled := t.settle(i, resp.H[i], spread[i], true)
		t.rel[i] = rel
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
			if rel, band, _ := t.settle(i, resp.H[i], spread[i], true); rel+band >= cut {
				t.pts = append(t.pts, i)
				t.guarded++
			}
		}
	}
	if len(t.pts) == 0 {
		return nil
	}
	if err := t.exact(t.pts); err != nil {
		return err
	}
	if err := t.eng.ApplyFault(f); err != nil {
		return err
	}
	return t.eng.ResolvePoints(resp, t.pts)
}

// settle scores grid point i of a valid answer h as RelativeDeviation
// scores it and returns its rel, the band within which the exact rel
// lies (see guardBand), and whether rounding could decide the point
// differently from the exact solves: h lies within the band of the
// threshold or of the measurement floor. A rank-1 answer's own rounding
// is bounded by guardBand·(|h| + spread); a re-solved answer has none. A
// corrected nominal adds its own bound (nomErr), through the numerator
// and the denominator of rel, and must also lie clear of the floor.
// Non-finite answers are unsettled.
func (t *tail) settle(i int, h complex128, spread float64, rank1 bool) (rel, band float64, unsettled bool) {
	rel, mf, den := analysis.MagDeviation(t.mag[i], h, t.nominal.Valid[i], true, t.floorAbs)
	var abs float64
	if rank1 {
		abs = guardBand * (mf + spread)
	}
	band = abs / den
	if an := t.nomErr(i); an > 0 {
		band = (abs + an*(1+rel)) / den
		if !(math.Abs(t.mag[i]-t.floorAbs) > an) {
			return rel, band, true
		}
	}
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
