package mna

import (
	"time"

	"analogdft/internal/numeric"
	"analogdft/internal/obs"
)

// Sweeper is the package's one solve path: one numeric.Workspace (CSR
// values + rhs + sparse LU scratch) is reused across points and the
// factorization happens in place, so a sweep that observes a single node
// (the detectability engine's hot loop) allocates nothing per point.
// System.SolveAt runs a one-point Sweeper.
type Sweeper struct {
	sys     *System
	ws      *numeric.Workspace
	nodeIdx int // -1 for ground
	tally   solveTally
	// box writes the single-pole opamp rows of each assembly.
	box numeric.CSRValues
}

// NewSweeper prepares a sweeper observing the given node, with its own
// workspace. Sweepers of one System may solve concurrently once its
// stamps are built, while no patch is live.
func (s *System) NewSweeper(node string) (*Sweeper, error) {
	idx, err := s.NodeIndex(node)
	if err != nil {
		return nil, err
	}
	// The pattern is built lazily with the stamps, and FactorAt binds
	// the workspace to it on first use.
	return &Sweeper{sys: s, ws: &numeric.Workspace{}, nodeIdx: idx}, nil
}

// FlushMetrics publishes the sweep's locally tallied solve counters to the
// global registry. Callers that loop over VoltageAt themselves should
// flush once the sweep is done (counts are invisible to metric snapshots
// until then).
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
	// Bound once, not repaired per point: after the first call the
	// buffers fit, and a corrupted workspace surfaces as a wrapped solve
	// error below instead of being silently mended.
	if !sw.ws.BoundTo(sw.sys.pat) {
		sw.ws.EnsureSparse(sw.sys.pat)
	}
	if _, err := sw.sys.assembleVals(freqHz, sw.ws.SVals, sw.ws.RHS, &sw.box); err != nil {
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
