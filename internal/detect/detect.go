// Package detect implements the testability evaluation of §2 and §3 of the
// paper: boolean fault detectability (Definition 1), ω-detectability
// (Definition 2) and the fault detectability matrix across the test
// configurations of a DFT-modified circuit (Figure 5 / Table 2).
//
// Fault simulation is embarrassingly parallel. A matrix is built one
// configuration row per task over a chunked worker pool: the worker that
// claims a row builds one engine, factors the nominal matrix once per
// grid point and answers every rank-1 fault of the row against that
// factorization (Sherman–Morrison), then re-solves under an in-place
// patch only the points that identity could not answer or whose verdict
// it could not settle; faults it cannot express climb the patch → clone
// ladder. A single-circuit evaluation (EvaluateCircuit) is the one-row
// case of the same walk. Results land in fixed matrix positions. The
// engine is race-clean (each row writes only its own slots; shared
// accounting goes through a mutex-guarded reducer) and error-transparent:
// a cell whose simulation fails is never silently recorded as
// "undetectable" — it is reported as a structured CellError, escalated
// (FailFast) or re-solved on a jittered grid (Retry) according to
// Options.OnError. Matrices, rows and error sets are identical for any
// Workers value.
package detect

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"analogdft/internal/analysis"
	"analogdft/internal/circuit"
	"analogdft/internal/dft"
	"analogdft/internal/fault"
	"analogdft/internal/obs"
)

// ErrNoRegion is returned when no reference region can be established for
// the circuit under analysis.
var ErrNoRegion = errors.New("detect: no reference region")

// ErrorPolicy selects how BuildMatrix and EvaluateCircuit treat cells
// whose AC simulation fails.
type ErrorPolicy int

// Error policies.
const (
	// Degrade (the default) records the failure as a structured cell
	// error, counts the cell as not detectable, and keeps going. Callers
	// must consult Matrix.CellErrors (or FaultEval.Err) before trusting
	// coverage numbers derived from a degraded matrix.
	Degrade ErrorPolicy = iota
	// FailFast aborts the whole evaluation on the first cell failure:
	// scheduling is cancelled, in-flight cells finish, and the error is
	// returned (as a CellError from BuildMatrix).
	FailFast
	// Retry re-solves singular grid points on a deterministically
	// jittered grid (up to Options.MaxRetries offsets per point) before
	// recording a failure; cells that still fail degrade as in Degrade.
	Retry
)

// String implements fmt.Stringer.
func (p ErrorPolicy) String() string {
	switch p {
	case Degrade:
		return "degrade"
	case FailFast:
		return "failfast"
	case Retry:
		return "retry"
	default:
		return fmt.Sprintf("ErrorPolicy(%d)", int(p))
	}
}

// Stats aggregates the effort and health of one matrix or row evaluation.
// Snapshots are delivered through Options.Progress; the final values are
// recorded on Matrix.Stats / Row.Stats.
type Stats struct {
	// Cells is the number of (configuration, fault) cells scheduled.
	Cells int
	// CellsDone is the number of cells completed so far.
	CellsDone int
	// Solves is the number of AC grid-point solves accounted: the nominal
	// sweep and every cell over the whole grid, plus retry attempts,
	// whichever solve — a refactorization or a rank-1 update — answered
	// each point.
	Solves int
	// SingularPoints is the number of grid points that remained
	// unsolvable (singular) after any retries.
	SingularPoints int
	// Retries is the number of jittered re-solve attempts performed
	// under the Retry policy.
	Retries int
	// Recovered is the number of singular points rescued by a retry.
	Recovered int
	// Errors is the number of cells that recorded an error.
	Errors int
	// Elapsed is the wall time of the whole evaluation: zero on
	// intermediate Progress snapshots, set on the final one.
	Elapsed time.Duration
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("%d/%d cells, %d solves, %d singular, %d retries (%d recovered), %d errors, %s",
		s.CellsDone, s.Cells, s.Solves, s.SingularPoints, s.Retries, s.Recovered, s.Errors, s.Elapsed)
}

// Options parameterizes the testability evaluation.
type Options struct {
	// Eps is the relative tolerance ε of Definition 1 (default 0.10: the
	// paper's "arbitrarily fixed at 10%").
	//
	// CAUTION: zero is a sentinel meaning "use the default", so an
	// explicit Eps of 0 is silently rewritten to 0.10. To request a true
	// zero tolerance (any nonzero deviation counts as detection), set
	// NoEps.
	Eps float64
	// EpsProfile optionally raises the threshold per grid point (e.g. a
	// process-tolerance envelope from the tolerance package). When set its
	// length must equal Points; the effective threshold at point i is
	// max(Eps, EpsProfile[i]).
	EpsProfile []float64
	// Points is the number of log-spaced grid points over Ω_reference used
	// to measure detectability regions (default 241).
	Points int
	// MeasFloor is the measurement floor as a fraction of the nominal
	// response peak; deviations where both responses sit below the floor
	// are unmeasurable (default 1e-4 ≈ −80 dB). Set negative to disable.
	MeasFloor float64
	// Region optionally pins Ω_reference; when zero it is derived from the
	// functional circuit per analysis.ReferenceRegion.
	Region analysis.Region
	// Probe is the wide exploratory sweep used to derive the region
	// (default analysis.DefaultProbe).
	Probe analysis.SweepSpec
	// Workers bounds the fault-simulation parallelism (default GOMAXPROCS):
	// a matrix runs its configuration rows in parallel, while the single
	// row of EvaluateCircuit is one task.
	Workers int
	// IncludeTransparent keeps the transparent configuration in the matrix
	// (default false, as in the paper's passive-fault study).
	IncludeTransparent bool
	// PerConfigRegion derives a fresh Ω_reference from each test
	// configuration's own nominal response instead of sharing the
	// functional configuration's region. The paper's Definition 2 is
	// ambiguous on this point; sharing (the default) keeps ω-detectability
	// values comparable across configurations, per-config regions measure
	// each emulated function on its own terms. Configurations whose region
	// cannot be derived fall back to the shared region.
	PerConfigRegion bool
	// NoEps disables the Eps zero-value default: with NoEps set, an
	// explicit Eps of 0 is honored as a zero tolerance instead of being
	// rewritten to 0.10.
	NoEps bool
	// OnError selects the error policy for failed cells: Degrade
	// (default), FailFast or Retry.
	OnError ErrorPolicy
	// MaxRetries bounds the per-point jitter attempts of the Retry
	// policy (default 3, clamped to analysis.MaxSingularRetries).
	MaxRetries int
	// Progress, when non-nil, receives a Stats snapshot after every
	// completed cell and a final snapshot (with Elapsed set) when the
	// evaluation finishes. Snapshots are emitted in deterministic cell
	// order regardless of Workers — the k-th snapshot always summarizes
	// cells 0..k-1 — and calls are serialized (never concurrent).
	Progress func(Stats)
	// MaxFollowers, when positive, restricts the matrix to configurations
	// with at most that many opamps in follower mode — the §5 remedy for
	// the fault-simulation bottleneck ("select a first subset of
	// configurations that will be candidate for the simulation process"):
	// 2ⁿ rows collapse to O(n^k). The functional configuration is always
	// included.
	MaxFollowers int

	// first, when set, starts every cell at that rung of the engine ladder
	// (rungPatch or rungClone) instead of at the row walk's rank-1 answers:
	// the references the row walk is held to in tests. It is unexported,
	// so no flag, request field or caller outside this package selects it.
	first rung
}

// Normalize returns the options with every unset field replaced by its
// documented default: Eps 0.10 (unless NoEps), Points 241, MeasFloor 1e-4
// (negative values clamp to 0, disabling the floor), Probe
// analysis.DefaultProbe, Workers GOMAXPROCS and MaxRetries 3 (clamped to
// analysis.MaxSingularRetries). Normalize is idempotent; the evaluation
// entry points apply it internally, and exporting it lets servers, CLIs
// and cache-key derivations all see the one canonical Options value a
// request will actually run with.
func (o Options) Normalize() Options {
	if o.Eps == 0 && !o.NoEps {
		o.Eps = 0.10
	}
	if o.Points == 0 {
		o.Points = 241
	}
	if o.MeasFloor == 0 {
		o.MeasFloor = 1e-4
	}
	if o.MeasFloor < 0 {
		o.MeasFloor = 0
	}
	if o.Probe.Points == 0 {
		o.Probe = analysis.DefaultProbe
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 3
	}
	if o.MaxRetries > analysis.MaxSingularRetries {
		o.MaxRetries = analysis.MaxSingularRetries
	}
	return o
}

// thresholdAt returns the effective detection threshold for grid point i.
func (o Options) thresholdAt(i int) float64 {
	if i >= 0 && i < len(o.EpsProfile) && o.EpsProfile[i] > o.Eps {
		return o.EpsProfile[i]
	}
	return o.Eps
}

// checkProfile validates EpsProfile against the grid size.
func (o Options) checkProfile(gridLen int) error {
	if len(o.EpsProfile) != 0 && len(o.EpsProfile) != gridLen {
		return fmt.Errorf("detect: EpsProfile has %d points, grid has %d", len(o.EpsProfile), gridLen)
	}
	return nil
}

// FaultEval is the evaluation of one fault in one circuit configuration.
type FaultEval struct {
	Fault fault.Fault
	// Detectable is Definition 1: some in-region frequency deviates by
	// more than ε.
	Detectable bool
	// OmegaDet is Definition 2 in percent: the fraction of Ω_reference
	// (log-frequency measure) where the fault deviates by more than ε.
	OmegaDet float64
	// MaxDev is the largest relative deviation observed in-region.
	MaxDev float64
	// Err records a simulation failure for this cell (nil otherwise); a
	// failed cell counts as not detectable.
	Err error
}

// Row is the evaluation of a full fault list against one circuit.
type Row struct {
	Circuit string
	Evals   []FaultEval
	Region  analysis.Region
	// Stats summarizes the simulation effort behind the row.
	Stats Stats
}

// ErrCount returns the number of evaluations that recorded an error.
func (r *Row) ErrCount() int {
	n := 0
	for _, e := range r.Evals {
		if e.Err != nil {
			n++
		}
	}
	return n
}

// FaultCoverage returns the fraction (0..1) of faults detectable in this
// row alone.
func (r *Row) FaultCoverage() float64 {
	if len(r.Evals) == 0 {
		return 0
	}
	n := 0
	for _, e := range r.Evals {
		if e.Detectable {
			n++
		}
	}
	return float64(n) / float64(len(r.Evals))
}

// AvgOmegaDet returns the mean ω-detectability (percent) over the row.
func (r *Row) AvgOmegaDet() float64 {
	if len(r.Evals) == 0 {
		return 0
	}
	s := 0.0
	for _, e := range r.Evals {
		s += e.OmegaDet
	}
	return s / float64(len(r.Evals))
}

// EvaluateCircuit measures detectability and ω-detectability of every
// fault on a single, fixed circuit (the paper's §2 analysis of the initial
// filter). The reference region is derived from the nominal circuit unless
// pinned in opts. New code should prefer EvaluateCircuitContext, which
// supports cancellation.
func EvaluateCircuit(ckt *circuit.Circuit, faults fault.List, opts Options) (*Row, error) {
	return EvaluateCircuitContext(context.Background(), ckt, faults, opts)
}

// EvaluateCircuitContext is EvaluateCircuit with cancellation: ctx is
// checked at every grid point of the row's walk and between cells, so an
// in-flight evaluation stops within one cell boundary of ctx being
// cancelled and returns ctx's error. The row is the one-row case of the
// matrix's row walk; its tail also re-solves under the patch every point
// that could hold a cell's peak deviation, so MaxDev is the patch rung's.
func EvaluateCircuitContext(ctx context.Context, ckt *circuit.Circuit, faults fault.List, opts Options) (*Row, error) {
	opts = opts.Normalize()
	start := obs.Now()
	sctx, span := obs.Start(ctx, "detect.row")
	span.SetTag("circuit", ckt.Name)
	defer span.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := faults.Validate(); err != nil {
		return nil, err
	}
	region, err := resolveRegion(ckt, opts)
	if err != nil {
		return nil, err
	}
	grid := region.Spec(opts.Points).Grid()
	if err := opts.checkProfile(len(grid)); err != nil {
		return nil, err
	}
	rr := newRowRunner(1, faults, opts, func(int) (rowSpec, error) {
		what := func() string { return strconv.Quote(ckt.Name) }
		return rowSpec{ckt: ckt, grid: grid, label: ckt.Name, what: what, maxDev: true}, nil
	})
	evals, tr, err := rr.run(sctx)
	if err != nil {
		return nil, err
	}
	if opts.OnError == FailFast {
		for j, e := range evals {
			if e.Err != nil {
				dFailFast.Inc()
				return nil, fmt.Errorf("detect: fault %s on %q: %w", faults[j].ID, ckt.Name, e.Err)
			}
		}
	}
	row := &Row{Circuit: ckt.Name, Region: region, Evals: evals, Stats: tr.finish(obs.Since(start))}
	bridgeStats(row.Stats, opts.OnError)
	if row.Stats.Errors > 0 {
		dlog.Warn("row evaluation degraded", "circuit", ckt.Name, "errors", row.Stats.Errors, "cells", row.Stats.Cells)
	}
	return row, nil
}

// resolveRegion returns opts.Region if set, else derives Ω_reference.
func resolveRegion(ckt *circuit.Circuit, opts Options) (analysis.Region, error) {
	if opts.Region != (analysis.Region{}) {
		if err := opts.Region.Validate(); err != nil {
			return analysis.Region{}, err
		}
		return opts.Region, nil
	}
	region, err := analysis.ReferenceRegion(ckt, opts.Probe)
	if err != nil {
		return analysis.Region{}, fmt.Errorf("%w: %v", ErrNoRegion, err)
	}
	return region, nil
}

// cellStats is the effort record of one cell, or of one row's nominal
// phase, merged by the tracker.
type cellStats struct {
	solves, singular, retries, recovered int
	err                                  bool
}

// rung names the rung of the engine ladder that answered a cell: the
// label of the cell-latency histogram and of the slow-cell exemplars.
type rung string

// The engine ladder's rungs.
const (
	rungRank1 rung = "rank1"
	rungPatch rung = "patch"
	rungClone rung = "clone"
)

// observeCell records one cell's wall latency under the rung that
// answered it and offers it to the slow-cell exemplar store, stamped with
// the trace ID carried by ctx. Call only with timing on.
func observeCell(ctx context.Context, seconds float64, r rung) {
	dCellSeconds.With(string(r)).Observe(seconds)
	id := ""
	if tc := obs.TraceFrom(ctx); !tc.IsZero() {
		id = tc.TraceIDString()
	}
	dSlowCells.Offer(seconds, id, string(r))
}

// allInvalid is the error of every cell whose nominal baseline has no
// valid point: the deviation profile would be identically zero, so the
// cell records an error instead of a silent "undetectable".
func allInvalid(ckt *circuit.Circuit) error {
	return fmt.Errorf("detect: nominal response of %q: %w", ckt.Name, analysis.ErrAllInvalid)
}

// retryNominal accounts a configuration's nominal sweep. Under the Retry
// policy it first re-solves the nominal's singular points on the same
// engine, so every cell compares against the best available baseline.
func retryNominal(eng *analysis.Engine, nominal *analysis.Response, opts Options) (cellStats, error) {
	st := cellStats{solves: nominal.Len()}
	if needsRetry(nominal, opts) {
		recovered, solves, err := eng.RetrySingularPoints(nominal, opts.MaxRetries)
		st.retries += solves
		st.solves += solves
		st.recovered += recovered
		if err != nil {
			return st, err
		}
	}
	st.singular = nominal.InvalidCount()
	return st, nil
}

// needsRetry reports whether the Retry policy re-solves resp's singular
// points.
func needsRetry(resp *analysis.Response, opts Options) bool {
	return opts.OnError == Retry && resp.InvalidCount() > 0
}

// fallback records a cell leaving rung from of the engine ladder: it is
// counted in engine_fallback_total and marked by a detect.fallback span.
// Which cells fall back is a property of the circuit and fault list — not
// of the schedule — so these spans are always recorded and the exported
// tree shape stays deterministic.
func fallback(ctx context.Context, f fault.Fault, from string) {
	dEngineFallback.Inc()
	_, s := obs.Start(ctx, "detect.fallback")
	s.SetTag("fault", f.String())
	s.SetTag("from", from)
	s.End()
}

// retrySpan opens a marker span around the jittered re-solve loop of a
// cell with singular points. Singularity is deterministic per cell, so
// the span set is schedule-independent; only durations vary.
func retrySpan(ctx context.Context, f fault.Fault, points int) *obs.Span {
	_, s := obs.Start(ctx, "detect.retry")
	s.SetTag("fault", f.String())
	s.SetTag("points", strconv.Itoa(points))
	return s
}

// endRetrySpan closes a retry span with its outcome.
func endRetrySpan(s *obs.Span, recovered int) {
	s.SetTag("recovered", strconv.Itoa(recovered))
	s.End()
}

// ladder is the patch → clone part of the engine ladder: it produces the
// faulty response of f on ckt and returns it with the engine that holds
// the faulty state (nil when none was built) and the rung that answered,
// so the caller's retry re-solves the faulty system and the caller's
// Reset restores the engine to nominal. The rungs, in order:
//
//  1. in-place patch, on eng when non-nil: the fault stamped into the
//     reusable engine, with no clone, no system rebuild and no per-cell
//     allocation beyond the response buffers;
//  2. clone-and-rebuild: the faulty circuit cloned and a fresh engine
//     built for the cell — the reference every other rung must match.
//
// A fault the patcher cannot express (opens, shorts, opamp model faults)
// falls to the clone rung. The rank-1 rung above both lives in the row
// sweep (rowRunner).
func ladder(ctx context.Context, eng *analysis.Engine, ckt *circuit.Circuit, f fault.Fault, grid []float64) (*analysis.Engine, *analysis.Response, rung, error) {
	if eng != nil {
		if err := eng.ApplyFault(f); err == nil {
			resp, err := eng.SweepGrid(grid)
			return eng, resp, rungPatch, err
		}
		fallback(ctx, f, "incremental")
	}
	faulty, err := f.Apply(ckt)
	if err != nil {
		return nil, nil, rungClone, err
	}
	// A throwaway engine per cell keeps this rung the reference path
	// (fresh clone, fresh system); reusing it for the retry skips only a
	// redundant rebuild.
	if eng, err = analysis.NewEngine(faulty); err != nil {
		return nil, nil, rungClone, err
	}
	resp, err := eng.SweepGrid(grid)
	return eng, resp, rungClone, err
}

// CellError is a structured record of one failed matrix cell: which
// configuration, which fault, and why the simulation failed.
type CellError struct {
	// Config is the matrix row (test configuration) of the failed cell.
	Config dft.Configuration
	// FaultIndex is the matrix column.
	FaultIndex int
	// Fault is the fault at that column.
	Fault fault.Fault
	// Err is the underlying simulation failure.
	Err error
}

// Error implements the error interface.
func (e CellError) Error() string {
	return fmt.Sprintf("detect: cell %s/%s: %v", e.Config.Label(), e.Fault.ID, e.Err)
}

// Unwrap exposes the underlying cause.
func (e CellError) Unwrap() error { return e.Err }

// Matrix is the fault detectability matrix of §3.2: one row per test
// configuration, one column per fault, with both the boolean detectability
// coefficients d[i][j] (Figure 5) and the ω-detectability values
// (Table 2).
type Matrix struct {
	// Source names the circuit the matrix was measured on.
	Source string
	// Configs lists the row configurations in order.
	Configs []dft.Configuration
	// Faults lists the column faults in order.
	Faults fault.List
	// Det[i][j] is true when fault j is detectable in configuration i.
	Det [][]bool
	// Omega[i][j] is the ω-detectability (percent) of fault j in
	// configuration i.
	Omega [][]float64
	// Region is the Ω_reference used for every cell.
	Region analysis.Region
	// CellErrors records every cell whose simulation failed (its d[i][j]
	// is recorded as undetectable), in row-major cell order. The set is
	// identical for any Workers value; an empty slice means every cell
	// was actually measured.
	CellErrors []CellError
	// Stats summarizes the simulation effort behind the matrix.
	Stats Stats
}

// MatrixConfigs returns the configuration rows a matrix build over m
// would produce under opts, in row order: the 2^n configurations
// (transparent one included only with IncludeTransparent) after the
// MaxFollowers filter.
func MatrixConfigs(m *dft.Modified, opts Options) []dft.Configuration {
	return matrixConfigs(m, opts.Normalize())
}

// matrixConfigs applies the row filtering shared by every matrix entry
// point. opts is already normalized.
func matrixConfigs(m *dft.Modified, opts Options) []dft.Configuration {
	configs := m.Configurations(opts.IncludeTransparent)
	if opts.MaxFollowers > 0 {
		var kept []dft.Configuration
		for _, cfg := range configs {
			if cfg.FollowerCount() <= opts.MaxFollowers {
				kept = append(kept, cfg)
			}
		}
		configs = kept
	}
	return configs
}

// NumCellErrs returns the number of cells whose simulation failed.
func (m *Matrix) NumCellErrs() int { return len(m.CellErrors) }

// BuildMatrix fault-simulates every configuration of the modified circuit
// against the fault list. The reference region is derived once from the
// functional configuration (unless pinned) so that ω-detectability values
// are comparable across configurations, then reused for every row. New
// code should prefer BuildMatrixContext, which supports cancellation.
func BuildMatrix(m *dft.Modified, faults fault.List, opts Options) (*Matrix, error) {
	return BuildMatrixContext(context.Background(), m, faults, opts)
}

// BuildMatrixContext is BuildMatrix with cancellation: ctx is checked
// between (configuration, fault) cells and at every grid point of a
// configuration's sweep, so an in-flight matrix build stops within one
// cell boundary of ctx being cancelled and returns ctx's error.
func BuildMatrixContext(ctx context.Context, m *dft.Modified, faults fault.List, opts Options) (*Matrix, error) {
	opts = opts.Normalize()
	start := obs.Now()
	sctx, span := obs.Start(ctx, "detect.matrix")
	span.SetTag("source", m.Base.Name)
	defer span.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := faults.Validate(); err != nil {
		return nil, err
	}
	functional, err := m.Configure(dft.Configuration{Index: 0, N: m.N()})
	if err != nil {
		return nil, err
	}
	region, err := resolveRegion(functional, opts)
	if err != nil {
		return nil, err
	}
	configs := matrixConfigs(m, opts)
	grid := region.Spec(opts.Points).Grid()
	if err := opts.checkProfile(len(grid)); err != nil {
		return nil, err
	}

	// One task per configuration row. With PerConfigRegion each row gets
	// its own grid; otherwise all rows share the functional region's grid.
	rr := newRowRunner(len(configs), faults, opts, func(i int) (rowSpec, error) {
		cfg := configs[i]
		ckt, err := m.Configure(cfg)
		if err != nil {
			return rowSpec{}, err
		}
		rowGrid := grid
		if opts.PerConfigRegion {
			if rowRegion, err := analysis.ReferenceRegion(ckt, opts.Probe); err == nil {
				rowGrid = rowRegion.Spec(opts.Points).Grid()
			}
		}
		return rowSpec{ckt: ckt, grid: rowGrid, label: cfg.Label(), what: cfg.String}, nil
	})
	evals, tr, err := rr.run(sctx)
	if err != nil {
		return nil, err
	}
	nf := len(faults)
	if opts.OnError == FailFast {
		// Return the lowest-index completed failure as a structured
		// CellError. With Workers=1 this is exactly the first failing
		// cell; with more workers a later cell may have raced ahead, but
		// some cell error is always reported.
		for k, e := range evals {
			if e.Err != nil {
				dFailFast.Inc()
				return nil, CellError{Config: configs[k/nf], FaultIndex: k % nf, Fault: faults[k%nf], Err: e.Err}
			}
		}
	}
	mx := &Matrix{
		Source:  m.Base.Name,
		Configs: configs,
		Faults:  faults,
		Det:     make([][]bool, len(configs)),
		Omega:   make([][]float64, len(configs)),
		Region:  region,
		Stats:   tr.finish(obs.Since(start)),
	}
	for i, cfg := range configs {
		mx.Det[i] = make([]bool, nf)
		mx.Omega[i] = make([]float64, nf)
		for j, e := range evals[i*nf : (i+1)*nf] {
			mx.Det[i][j] = e.Detectable
			mx.Omega[i][j] = e.OmegaDet
			if e.Err != nil {
				mx.CellErrors = append(mx.CellErrors, CellError{Config: cfg, FaultIndex: j, Fault: faults[j], Err: e.Err})
			}
		}
	}
	bridgeStats(mx.Stats, opts.OnError)
	if n := len(mx.CellErrors); n > 0 {
		dlog.Warn("matrix degraded", "source", mx.Source, "failed_cells", n, "cells", len(evals))
	}
	return mx, nil
}

// tracker merges per-cell stats and emits Progress snapshots in cell
// order. Each row contributes its nominal phase, then its cells, and
// every record is folded in only after all records before it, so the
// snapshot sequence is a deterministic function of the results,
// independent of worker count and completion order. Only cells emit
// snapshots.
type tracker struct {
	mu       sync.Mutex
	nf       int // cells per row
	frontier int
	done     []bool
	pending  []cellStats
	stats    Stats
	progress func(Stats)
}

// newTracker starts a tracker over rows rows of nf cells each.
func newTracker(rows, nf int, progress func(Stats)) *tracker {
	n := rows * (nf + 1)
	return &tracker{
		nf:       nf,
		done:     make([]bool, n),
		pending:  make([]cellStats, n),
		stats:    Stats{Cells: rows * nf},
		progress: progress,
	}
}

// nominal records row i's nominal-phase stats.
func (t *tracker) nominal(i int, ns cellStats) { t.record(i*(t.nf+1), ns) }

// complete records cell k's stats.
func (t *tracker) complete(k int, cs cellStats) { t.record(k/t.nf*(t.nf+1)+1+k%t.nf, cs) }

// record stores one record and advances the in-order frontier, emitting
// one Progress snapshot per newly contiguous cell.
func (t *tracker) record(e int, cs cellStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done[e] = true
	t.pending[e] = cs
	for t.frontier < len(t.done) && t.done[t.frontier] {
		cs := t.pending[t.frontier]
		cell := t.frontier%(t.nf+1) != 0
		t.frontier++
		t.stats.Solves += cs.solves
		t.stats.SingularPoints += cs.singular
		t.stats.Retries += cs.retries
		t.stats.Recovered += cs.recovered
		if !cell {
			continue
		}
		t.stats.CellsDone++
		if cs.err {
			t.stats.Errors++
		}
		if t.progress != nil {
			t.progress(t.stats)
		}
	}
}

// finish stamps the wall time, emits the final snapshot and returns it.
// Call only after every worker has returned.
func (t *tracker) finish(elapsed time.Duration) Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Elapsed = elapsed
	if t.progress != nil {
		t.progress(t.stats)
	}
	return t.stats
}

// runParallel executes fn(ctx, 0..n-1) over at most workers goroutines
// using a chunked scheduler: indices are claimed in fixed-size contiguous
// chunks off an atomic cursor. fn must write only to index-distinct state
// (shared accounting goes through the tracker's mutex), which keeps the
// engine race-clean and its results independent of worker count.
// Cancelling ctx stops workers from starting new tasks; tasks already in
// flight finish.
//
// When obs timing is on the scheduler also reports its own health: chunk
// latency and size histograms, per-worker busy fractions, and a
// "detect.chunk" span per claimed chunk (nested under the caller's span
// via ctx, so job traces show where cell time went). All of it is
// schedule-dependent by nature — which chunks exist depends on the worker
// count and the race for the cursor — so none of it is collected with
// timing off, keeping traces and registry snapshots deterministic.
func runParallel(ctx context.Context, n, workers int, fn func(ctx context.Context, i int)) {
	if workers > n {
		workers = n
	}
	timed := obs.TimingOn()
	if workers <= 1 {
		cctx := ctx
		if timed {
			dWorkers.Set(1)
			var cs *obs.Span
			cctx, cs = obs.Start(ctx, "detect.chunk")
			cs.SetTag("worker", "0")
			cs.SetTag("cells", fmt.Sprint(n))
			t0 := obs.Now()
			defer func() {
				el := obs.Since(t0)
				dChunkSeconds.Observe(el.Seconds())
				dChunkCells.Observe(float64(n))
				dWorkerBusy.Observe(1)
				cs.End()
			}()
		}
		for i := 0; i < n; i++ {
			if ctx != nil && ctx.Err() != nil {
				return
			}
			fn(cctx, i)
		}
		return
	}
	if timed {
		dWorkers.Set(float64(workers))
	}
	// A few chunks per worker balances scheduling overhead against the
	// tail latency of unlucky (slow) cells.
	chunk := n / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	fanStart := obs.Now()
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			var busy time.Duration
			if timed {
				defer func() {
					if total := obs.Since(fanStart); total > 0 {
						dWorkerBusy.Observe(busy.Seconds() / total.Seconds())
					}
				}()
			}
			for {
				if ctx != nil && ctx.Err() != nil {
					return
				}
				start := int(cursor.Add(int64(chunk))) - chunk
				if start >= n {
					return
				}
				end := start + chunk
				if end > n {
					end = n
				}
				cctx := ctx
				var c0 time.Time
				var cs *obs.Span
				if timed {
					c0 = obs.Now()
					cctx, cs = obs.Start(ctx, "detect.chunk")
					cs.SetTag("worker", fmt.Sprint(worker))
					cs.SetTag("cells", fmt.Sprint(end-start))
				}
				for i := start; i < end; i++ {
					if ctx != nil && ctx.Err() != nil {
						cs.End()
						return
					}
					fn(cctx, i)
				}
				if timed {
					cs.End()
					el := obs.Since(c0)
					busy += el
					dChunkSeconds.Observe(el.Seconds())
					dChunkCells.Observe(float64(end - start))
				}
			}
		}(w)
	}
	wg.Wait()
}

// NumConfigs returns the number of matrix rows.
func (m *Matrix) NumConfigs() int { return len(m.Configs) }

// NumFaults returns the number of matrix columns.
func (m *Matrix) NumFaults() int { return len(m.Faults) }

// ConfigByLabel returns the row index of the configuration with the given
// label (e.g. "C2"), or -1.
func (m *Matrix) ConfigByLabel(label string) int {
	for i, c := range m.Configs {
		if c.Label() == label {
			return i
		}
	}
	return -1
}

// DetectableAnywhere reports whether fault j is detectable in at least one
// configuration.
func (m *Matrix) DetectableAnywhere(j int) bool {
	for i := range m.Configs {
		if m.Det[i][j] {
			return true
		}
	}
	return false
}

// FaultCoverage returns the maximum achievable fault coverage (0..1):
// the fraction of faults detectable in at least one configuration.
func (m *Matrix) FaultCoverage() float64 {
	if m.NumFaults() == 0 {
		return 0
	}
	n := 0
	for j := range m.Faults {
		if m.DetectableAnywhere(j) {
			n++
		}
	}
	return float64(n) / float64(m.NumFaults())
}

// CoverageOf returns the fault coverage achieved by the given subset of
// row indices.
func (m *Matrix) CoverageOf(rows []int) float64 {
	if m.NumFaults() == 0 {
		return 0
	}
	n := 0
	for j := range m.Faults {
		for _, i := range rows {
			if i >= 0 && i < len(m.Det) && m.Det[i][j] {
				n++
				break
			}
		}
	}
	return float64(n) / float64(m.NumFaults())
}

// BestOmega returns, per fault, the maximum ω-detectability across the
// given rows (all rows when rows is nil) — the paper's "best case" testing
// assumption (Graph 2).
func (m *Matrix) BestOmega(rows []int) []float64 {
	if rows == nil {
		rows = make([]int, m.NumConfigs())
		for i := range rows {
			rows[i] = i
		}
	}
	out := make([]float64, m.NumFaults())
	for j := range out {
		best := 0.0
		for _, i := range rows {
			if i >= 0 && i < len(m.Omega) && m.Omega[i][j] > best {
				best = m.Omega[i][j]
			}
		}
		out[j] = best
	}
	return out
}

// AvgBestOmega returns the average over faults of the best-case
// ω-detectability across the given rows (all when nil) — the paper's
// ⟨ω-det⟩ figure of merit.
func (m *Matrix) AvgBestOmega(rows []int) float64 {
	best := m.BestOmega(rows)
	if len(best) == 0 {
		return 0
	}
	s := 0.0
	for _, b := range best {
		s += b
	}
	return s / float64(len(best))
}

// Row extracts one configuration's evaluations as a Row, including any
// per-cell errors recorded for that configuration.
func (m *Matrix) RowOf(i int) (*Row, error) {
	if i < 0 || i >= m.NumConfigs() {
		return nil, fmt.Errorf("detect: row %d out of range", i)
	}
	row := &Row{Circuit: fmt.Sprintf("%s@%s", m.Source, m.Configs[i].Label()), Region: m.Region}
	for j, f := range m.Faults {
		eval := FaultEval{
			Fault:      f,
			Detectable: m.Det[i][j],
			OmegaDet:   m.Omega[i][j],
		}
		for _, ce := range m.CellErrors {
			if ce.Config == m.Configs[i] && ce.FaultIndex == j {
				eval.Err = ce.Err
				break
			}
		}
		row.Evals = append(row.Evals, eval)
	}
	return row, nil
}

// SubMatrix returns a new matrix holding copies of the given rows (in the
// given order), sharing fault columns and region. Stats stay zero: no cell
// of the result was simulated.
func (m *Matrix) SubMatrix(rows []int) (*Matrix, error) {
	out := &Matrix{
		Source: m.Source,
		Faults: m.Faults,
		Region: m.Region,
	}
	for _, i := range rows {
		if i < 0 || i >= m.NumConfigs() {
			return nil, fmt.Errorf("detect: row %d out of range", i)
		}
		out.Configs = append(out.Configs, m.Configs[i])
		out.Det = append(out.Det, append([]bool(nil), m.Det[i]...))
		out.Omega = append(out.Omega, append([]float64(nil), m.Omega[i]...))
		for _, ce := range m.CellErrors {
			if ce.Config == m.Configs[i] {
				out.CellErrors = append(out.CellErrors, ce)
			}
		}
	}
	return out, nil
}

// WorstCasePerComponent merges a bipolar evaluation (fault IDs generated
// by fault.BipolarDeviationUniverse: "f<comp>+" and "f<comp>-") into one
// worst-case evaluation per component: detectable when either deviation
// direction is, ω-detectability and max deviation taken as the maxima.
// Faults without the +/- suffix pairing pass through unchanged.
func WorstCasePerComponent(row *Row) *Row {
	out := &Row{Circuit: row.Circuit + " (worst case)", Region: row.Region}
	merged := make(map[string]int) // component -> index in out.Evals
	for _, e := range row.Evals {
		id := e.Fault.ID
		base := id
		if n := len(id); n > 1 && (id[n-1] == '+' || id[n-1] == '-') {
			base = id[:n-1]
		}
		if idx, ok := merged[base]; ok {
			prev := &out.Evals[idx]
			prev.Detectable = prev.Detectable || e.Detectable
			if e.OmegaDet > prev.OmegaDet {
				prev.OmegaDet = e.OmegaDet
			}
			if e.MaxDev > prev.MaxDev {
				prev.MaxDev = e.MaxDev
			}
			if prev.Err == nil {
				prev.Err = e.Err
			}
			continue
		}
		merged[base] = len(out.Evals)
		we := e
		we.Fault.ID = base
		out.Evals = append(out.Evals, we)
	}
	return out
}
