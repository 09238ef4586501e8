package analogdft

import (
	"context"
	"errors"
	"fmt"
)

// ErrNoChain is returned by Session methods that need a DFT chain when the
// session's bench has none.
var ErrNoChain = errors.New("analogdft: bench has no DFT chain")

// Session bundles the parameter train the DFT flows keep passing around —
// a bench, a fault universe and the evaluation Options (Options.Region
// optionally pins Ω_reference) — behind one handle with context-aware methods. It
// replaces call chains like
//
//	mod, _ := analogdft.ApplyDFT(bench.Circuit, bench.Chain)
//	mx, _ := analogdft.BuildMatrix(mod, faults, opts)
//	res, _ := analogdft.Optimize(mx, bench.Chain, cost)
//
// with
//
//	s := analogdft.NewSession(bench, faults, opts)
//	res, _ := s.Optimize(ctx, cost)
//
// The session caches the DFT-modified circuit and the detectability matrix
// it builds, so Matrix followed by Optimize simulates only once. Options
// are normalized at construction, making s.Options the one canonical
// value every method (and any cache key derived from the session) sees.
//
// A Session is not safe for concurrent use; give each goroutine (or each
// server job) its own.
type Session struct {
	// Bench is the circuit under test with its DFT chain.
	Bench *Bench
	// Faults is the fault universe to evaluate.
	Faults FaultList
	// Options is the normalized evaluation parameter set.
	Options Options

	mod *Modified
	mx  *Matrix
}

// NewSession builds a session over a bench, normalizing opts (see
// Options.Normalize). The fault list and options are fixed for the
// session's lifetime; mutate the exported fields before the first method
// call only.
func NewSession(bench *Bench, faults FaultList, opts Options) *Session {
	return &Session{Bench: bench, Faults: faults, Options: opts.Normalize()}
}

// Evaluate measures detectability of the session's faults on the
// unmodified bench circuit (the §2 analysis). ctx cancels between cells.
func (s *Session) Evaluate(ctx context.Context) (*Row, error) {
	return EvaluateCircuitContext(ctx, s.Bench.Circuit, s.Faults, s.Options)
}

// Modified returns the DFT-modified circuit (the bench chain applied),
// building it on first use.
func (s *Session) Modified() (*Modified, error) {
	if s.mod == nil {
		if len(s.Bench.Chain) == 0 {
			return nil, fmt.Errorf("%w: %s", ErrNoChain, s.Bench.Circuit.Name)
		}
		mod, err := ApplyDFT(s.Bench.Circuit, s.Bench.Chain)
		if err != nil {
			return nil, err
		}
		s.mod = mod
	}
	return s.mod, nil
}

// Matrix fault-simulates the detectability matrix over every DFT
// configuration, caching the result: a second call (or a following
// Optimize) does not re-simulate. ctx cancels between cells.
func (s *Session) Matrix(ctx context.Context) (*Matrix, error) {
	if s.mx != nil {
		return s.mx, nil
	}
	mod, err := s.Modified()
	if err != nil {
		return nil, err
	}
	mx, err := BuildMatrixContext(ctx, mod, s.Faults, s.Options)
	if err != nil {
		return nil, err
	}
	s.mx = mx
	return mx, nil
}

// Optimize runs the §4 ordered-requirement optimization over the
// session's matrix (building it first if needed) with the given 2nd-order
// cost; a zero cost selects ConfigCountCost. ctx cancels both the matrix
// build and the Petrick expansion.
func (s *Session) Optimize(ctx context.Context, cost CostFunction) (*Result, error) {
	mx, err := s.Matrix(ctx)
	if err != nil {
		return nil, err
	}
	return OptimizeContext(ctx, mx, s.Bench.Chain, cost)
}
