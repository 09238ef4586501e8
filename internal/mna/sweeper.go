package mna

import (
	"fmt"
	"time"

	"analogdft/internal/circuit"
	"analogdft/internal/numeric"
	"analogdft/internal/obs"
)

// Sweeper is the allocation-free fast path for frequency sweeps that only
// observe a single node (the detectability engine's hot loop): one
// numeric.Workspace (CSR values + rhs + sparse LU scratch) is handed down
// and reused across points, and the factorization happens in place.
type Sweeper struct {
	sys     *System
	ws      *numeric.Workspace
	nodeIdx int // -1 for ground
	tally   solveTally
}

// NewSweeper prepares a sweeper observing the given node, with its own
// workspace.
func (s *System) NewSweeper(node string) (*Sweeper, error) {
	return s.NewSweeperWS(node, nil)
}

// NewSweeperWS is NewSweeper reusing a caller-owned workspace (resized to
// fit); pass nil to allocate a fresh one.
func (s *System) NewSweeperWS(node string, ws *numeric.Workspace) (*Sweeper, error) {
	idx := -1
	if !circuit.IsGroundName(node) {
		i, ok := s.nodeIndex[circuit.CanonicalNode(node)]
		if !ok {
			return nil, fmt.Errorf("mna: unknown node %q", node)
		}
		idx = i
	}
	if ws == nil {
		// The pattern is built lazily with the stamps, and VoltageAt
		// binds the workspace to it on first use.
		ws = &numeric.Workspace{}
	}
	return &Sweeper{
		sys:     s,
		ws:      ws,
		nodeIdx: idx,
	}, nil
}

// FlushMetrics publishes the sweep's locally tallied solve counters to the
// global registry. Callers that loop over VoltageAt themselves should
// flush once the sweep is done (counts are invisible to metric snapshots
// until then); SweepGrid flushes automatically.
func (sw *Sweeper) FlushMetrics() { sw.tally.flush() }

// VoltageAt solves the system at one frequency and returns the observed
// node's voltage, reusing all buffers. Errors are exactly those of
// SolveAt (numeric.ErrSingular for singular points).
func (sw *Sweeper) VoltageAt(freqHz float64) (complex128, error) {
	_, x, err := sw.FactorAt(freqHz)
	if err != nil || sw.nodeIdx < 0 {
		return 0, err
	}
	return x[sw.nodeIdx], nil
}

// FactorAt is VoltageAt returning the whole solve: the factorization of
// the assembled matrix and the full solution vector. Both alias the
// workspace and stay valid until the next solve on it, so a caller can
// answer further systems against the same factor (the low-rank sweep
// solves every rank-1 fault of a configuration against it) without
// factoring again. The solve is tallied like VoltageAt's.
func (sw *Sweeper) FactorAt(freqHz float64) (*numeric.SparseLU, []complex128, error) {
	timed := obs.TimingOn()
	var t0 time.Time
	if timed {
		t0 = obs.Now()
	}
	if err := validFreq(freqHz); err != nil {
		sw.tally.record(err, t0, timed)
		return nil, nil, err
	}
	rebuilt, err := sw.sys.ensureStamps()
	if err != nil {
		sw.tally.record(err, t0, timed)
		return nil, nil, err
	}
	sw.tally.recordStamps(rebuilt)
	// Bound once per system, not repaired per point: after the first call
	// the buffers fit (a workspace shared with another system's sweeper is
	// rebound when it comes back), and a caller-corrupted workspace
	// surfaces as a wrapped solve error below instead of being silently
	// mended.
	if !sw.ws.BoundTo(sw.sys.pat) {
		sw.ws.EnsureSparse(sw.sys.pat)
	}
	if _, err := sw.sys.assembleVals(freqHz, sw.ws.SVals, sw.ws.RHS); err != nil {
		sw.tally.record(err, t0, timed)
		return nil, nil, err
	}
	lu, err := sw.ws.SparseFactor()
	if err != nil {
		sw.tally.record(err, t0, timed)
		return nil, nil, &SolveError{Circuit: sw.sys.ckt.Name, FreqHz: freqHz, Err: err}
	}
	if err := lu.SolveInPlace(sw.ws.RHS); err != nil {
		sw.tally.record(err, t0, timed)
		// Wrapped exactly like the factorization failure above, so
		// analysis.ClassifyError and the retry policies classify a failed
		// back-substitution identically to a failed factorization.
		return nil, nil, &SolveError{Circuit: sw.sys.ckt.Name, FreqHz: freqHz, Err: err}
	}
	sw.tally.record(nil, t0, timed)
	return lu, sw.ws.RHS, nil
}

// SweepGrid solves the system across the whole grid, invoking visit for
// every point with the point index, the observed voltage and the solve
// error (nil on success); returning a non-nil error from visit aborts the
// sweep and is returned. The solve counters tallied during the sweep are
// flushed on return — callers cannot forget the FlushMetrics contract the
// way hand-rolled VoltageAt loops could.
func (sw *Sweeper) SweepGrid(grid []float64, visit func(i int, v complex128, err error) error) error {
	defer sw.FlushMetrics()
	for i, f := range grid {
		v, err := sw.VoltageAt(f)
		if err := visit(i, v, err); err != nil {
			return err
		}
	}
	return nil
}

// System returns the system the sweeper solves — the handle through which
// engine callers patch values (SetValue/Reset) between sweeps.
func (sw *Sweeper) System() *System { return sw.sys }
