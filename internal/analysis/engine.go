package analysis

import (
	"errors"
	"fmt"

	"analogdft/internal/circuit"
	"analogdft/internal/fault"
	"analogdft/internal/mna"
	"analogdft/internal/numeric"
)

// Engine is the reusable sweep pipeline for one circuit configuration: it
// owns the driven clone (stimulus attached), the indexed MNA system with
// its cached G/jωC split stamps, and a sweeper with its workspace. Those
// are built exactly once; every subsequent sweep — nominal, faulty via
// ApplyFault, or a singular-point retry — reuses them, which
// is what makes the incremental fault-simulation path clone-free and
// allocation-flat. An Engine is not safe for concurrent use; give each
// worker its own.
type Engine struct {
	driven  *circuit.Circuit
	sys     *mna.System
	sw      *mna.Sweeper
	nodeIdx int // observed node's unknown index, -1 for ground

	// wb corrects a basis point to the engine's configuration
	// (SweepLowRank).
	wb numeric.Woodbury
}

// NewEngine prepares an engine for the (undriven) circuit: the input is
// driven with a unit AC source and the output node is observed, exactly
// as Sweep does per call.
func NewEngine(ckt *circuit.Circuit) (*Engine, error) {
	driven, err := mna.Driven(ckt)
	if err != nil {
		return nil, err
	}
	sys, err := mna.NewSystem(driven)
	if err != nil {
		return nil, err
	}
	out := circuit.CanonicalNode(driven.Output)
	sw, err := sys.NewSweeper(out)
	if err != nil {
		return nil, err
	}
	nodeIdx, err := sys.NodeIndex(out)
	if err != nil {
		return nil, err
	}
	return &Engine{driven: driven, sys: sys, sw: sw, nodeIdx: nodeIdx}, nil
}

// SweepGrid samples the transfer function over an explicit grid in the
// engine's current state (nominal, or faulty while a patch is applied).
// Singular points are recorded as invalid rather than failing the sweep;
// the sweep's solve metrics are flushed on return.
func (e *Engine) SweepGrid(grid []float64) (*Response, error) {
	if len(grid) == 0 {
		return nil, fmt.Errorf("%w: empty grid", ErrBadSweep)
	}
	resp := &Response{
		Freqs: append([]float64(nil), grid...),
		H:     make([]complex128, len(grid)),
		Valid: make([]bool, len(grid)),
	}
	defer e.sw.FlushMetrics()
	for i, f := range grid {
		v, err := e.sw.VoltageAt(f)
		if err != nil {
			if errors.Is(err, numeric.ErrSingular) {
				continue // leave point invalid
			}
			return nil, err
		}
		resp.H[i] = v
		resp.Valid[i] = true
	}
	return resp, nil
}

// ApplyFault expresses the fault as an in-place stamp patch on the live
// system. Faults that cannot be patched — opens, shorts, opamp model
// faults (fault.ErrNotPatchable), or values the stamps cannot express
// (mna.ErrUnsupported) — leave the engine nominal and return the error;
// callers fall back to the clone-per-cell path.
func (e *Engine) ApplyFault(f fault.Fault) error {
	name, v, err := f.PatchValue(e.driven)
	if err != nil {
		return err
	}
	if err := e.sys.SetValue(name, v); err != nil {
		return err
	}
	ePatches.Inc()
	return nil
}

// Reset restores the engine to its nominal state (exact snapshot restore;
// see mna.System.Reset).
func (e *Engine) Reset() { e.sys.Reset() }

// RetrySingularPoints re-attempts the invalid points of resp, in place,
// at deterministically jittered frequencies — up to attempts offsets per
// point, clamped to MaxSingularRetries — reusing the engine's system and
// workspace instead of rebuilding the driven circuit per call. resp must
// have been produced by this engine in its current state (a faulty retry
// runs while the fault is still applied). It returns the number of
// points recovered and the number of extra solves performed; failures
// other than a singular system abort the retry.
func (e *Engine) RetrySingularPoints(resp *Response, attempts int) (recovered, solves int, err error) {
	if attempts <= 0 || resp.InvalidCount() == 0 {
		return 0, 0, nil
	}
	if attempts > len(singularJitter) {
		attempts = len(singularJitter)
	}
	defer e.sw.FlushMetrics()
	for i, ok := range resp.Valid {
		if ok {
			continue
		}
		for _, rel := range singularJitter[:attempts] {
			solves++
			v, verr := e.sw.VoltageAt(resp.Freqs[i] * (1 + rel))
			if verr != nil {
				if errors.Is(verr, numeric.ErrSingular) {
					continue
				}
				return recovered, solves, verr
			}
			resp.H[i] = v
			resp.Valid[i] = true
			recovered++
			break
		}
	}
	return recovered, solves, nil
}
