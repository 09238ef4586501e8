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
// worker its own — a fork (Fork) costs one value slab, not a rebuild.
//
// A basis's engine and its forks also switch configurations in place:
// SetFollowers puts the chain opamps a configuration names in follower
// mode on the engine's own system (mna.System.SetOpampMode), so one
// engine serves every configuration row of a matrix.
type Engine struct {
	driven  *circuit.Circuit
	sys     *mna.System
	sw      *mna.Sweeper
	nodeIdx int // observed node's unknown index, -1 for ground
	// chain names the opamps SetFollowers may switch, in chain order;
	// empty but on a basis's engine and its forks.
	chain []string

	// wb corrects a basis point to the engine's configuration, and
	// incs[q] is incidence q at the walk's current point (SweepLowRank).
	wb   numeric.Woodbury
	incs []numeric.Incidence
}

// NewEngine prepares an engine for the (undriven) circuit: the input is
// driven with a unit AC source and the output node is observed, exactly
// as Sweep does per call.
func NewEngine(ckt *circuit.Circuit) (*Engine, error) { return newEngine(ckt, nil) }

// newEngine is NewEngine for an engine whose chain opamps, configurable
// with a test input, SetFollowers may switch.
func newEngine(ckt *circuit.Circuit, chain []string) (*Engine, error) {
	driven, err := mna.Driven(ckt)
	if err != nil {
		return nil, err
	}
	sys, err := mna.NewSystem(driven)
	if err != nil {
		return nil, err
	}
	if len(chain) > 0 {
		if err := sys.Switchable(chain); err != nil {
			return nil, err
		}
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
	return &Engine{driven: driven, sys: sys, sw: sw, nodeIdx: nodeIdx, chain: chain}, nil
}

// Fork returns an engine of the same driven circuit in e's state that
// shares e's system's pattern and indexing (mna.System.Fork) and owns
// its values, its sweeper and its workspace, so it can be used alone
// beside e. e must be unpatched; forks of one engine may be made
// concurrently once its stamps are built, while nothing writes it.
func (e *Engine) Fork() (*Engine, error) {
	sys, err := e.sys.Fork()
	if err != nil {
		return nil, err
	}
	sw, err := sys.NewSweeper(circuit.CanonicalNode(e.driven.Output))
	if err != nil {
		return nil, err
	}
	return &Engine{driven: e.driven, sys: sys, sw: sw, nodeIdx: e.nodeIdx, chain: e.chain}, nil
}

// SetFollowers switches the engine to the configuration whose follower
// opamps are followers, given as ascending indices into its chain: those
// opamps go to follower mode and every other chain opamp to normal mode,
// in place. The engine then solves the configured circuit's matrix bit
// for bit (mna.System.SetOpampMode), and its solve errors give that
// circuit's name, name (mna.System.SetName); value patches and Reset
// leave the configuration alone.
func (e *Engine) SetFollowers(name string, followers []int) error {
	e.sys.SetName(name)
	next := 0
	for a, name := range e.chain {
		mode := circuit.ModeNormal
		if next < len(followers) && followers[next] == a {
			mode = circuit.ModeFollower
			next++
		}
		if err := e.sys.SetOpampMode(name, mode); err != nil {
			return err
		}
	}
	if next < len(followers) {
		return fmt.Errorf("%w: followers %v outside a %d-opamp chain", ErrBadSweep, followers, len(e.chain))
	}
	return nil
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

// ApplyFault patches the fault into the live system in place, as its
// fault.Patch states it, until Reset: a single-pole opamp's model
// through mna.System.SetOpampModel, which solves the clone Apply would
// build bit for bit, and a component value — a deviation, or the value
// that emulates an open or a short — through SetValue, which adds the
// value's change to the stamps and so agrees with the clone to their
// rounding. Either holds in the configuration SetFollowers set. A fault
// Apply refuses fails with Apply's error, and a value the stamps cannot
// express with mna.ErrUnsupported; either leaves the engine as it was.
func (e *Engine) ApplyFault(f fault.Fault) error {
	p, err := f.Patch(e.driven)
	if err != nil {
		return err
	}
	if p.Opamp {
		err = e.sys.SetOpampModel(p.Component, p.A0, p.PoleHz)
	} else {
		err = e.sys.SetValue(p.Component, p.Value)
	}
	if err != nil {
		return err
	}
	ePatches.Inc()
	return nil
}

// Reset restores the engine to its nominal state (exact snapshot restore;
// see mna.System.Reset) in the configuration SetFollowers last set.
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
