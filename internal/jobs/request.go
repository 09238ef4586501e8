// Package jobs is the job layer behind cmd/dftserved: it resolves JSON
// job requests into library Sessions, runs them on a bounded worker pool
// with queueing and backpressure, supports cancellation mid-simulation
// (jobs run through the context-aware facade entry points and stop within
// one cell boundary), and serves repeated requests from a
// content-addressed LRU result cache keyed by CacheKey, so identical work
// is never simulated twice.
package jobs

import (
	"errors"
	"fmt"
	"sort"

	"analogdft"
	"analogdft/internal/obs/cliobs"
	"analogdft/internal/spice"
)

// Kind selects what a job computes.
type Kind string

// Job kinds.
const (
	// KindEvaluate runs the §2 analysis on the unmodified circuit.
	KindEvaluate Kind = "evaluate"
	// KindMatrix builds the §3.2 fault detectability matrix.
	KindMatrix Kind = "matrix"
	// KindOptimize runs the §4 ordered-requirement optimization.
	KindOptimize Kind = "optimize"
)

// ErrBadRequest wraps every request-validation failure, so the HTTP layer
// can map the whole family onto one status code.
var ErrBadRequest = errors.New("jobs: bad request")

// Request is the JSON body of a job submission.
type Request struct {
	// Kind selects the computation: evaluate, matrix or optimize.
	Kind Kind `json:"kind"`
	// Bench names a built-in benchmark circuit (e.g. "paper-biquad").
	// Exactly one of Bench and Deck must be set.
	Bench string `json:"bench,omitempty"`
	// Deck is an inline SPICE deck (the same format the CLIs load from
	// files, including the optional .chain directive).
	Deck string `json:"deck,omitempty"`
	// Faults selects the fault universe.
	Faults FaultSpec `json:"faults"`
	// Options mirrors the result-affecting evaluation options.
	Options OptionSpec `json:"options"`
	// Cost selects the 2nd-order requirement for optimize jobs:
	// "configs" (default) or "opamps".
	Cost string `json:"cost,omitempty"`
}

// FaultSpec selects the fault universe of a request.
type FaultSpec struct {
	// Universe is "deviation" (default), "bipolar" or "catastrophic".
	Universe string `json:"universe,omitempty"`
	// Frac is the deviation size as a fraction (default 0.20); ignored
	// for the catastrophic universe.
	Frac float64 `json:"frac,omitempty"`
}

// OptionSpec is the JSON mirror of the evaluation Options. Zero fields
// take the library defaults (Options.Normalize documents them), so the
// canonical cache key of a request is independent of whether a default is
// omitted or spelled out.
type OptionSpec struct {
	Eps                float64   `json:"eps,omitempty"`
	NoEps              bool      `json:"no_eps,omitempty"`
	EpsProfile         []float64 `json:"eps_profile,omitempty"`
	Points             int       `json:"points,omitempty"`
	MeasFloor          float64   `json:"meas_floor,omitempty"`
	LoHz               float64   `json:"lo_hz,omitempty"`
	HiHz               float64   `json:"hi_hz,omitempty"`
	IncludeTransparent bool      `json:"include_transparent,omitempty"`
	PerConfigRegion    bool      `json:"per_config_region,omitempty"`
	OnError            string    `json:"on_error,omitempty"`
	MaxRetries         int       `json:"max_retries,omitempty"`
	MaxFollowers       int       `json:"max_followers,omitempty"`
	// Workers bounds the per-job simulation parallelism. It never enters
	// the cache key: matrices are identical for any worker count.
	Workers int `json:"workers,omitempty"`
}

// build maps the spec onto library options.
func (o OptionSpec) build() (analogdft.Options, error) {
	opts := analogdft.Options{
		Eps:                o.Eps,
		NoEps:              o.NoEps,
		EpsProfile:         o.EpsProfile,
		Points:             o.Points,
		MeasFloor:          o.MeasFloor,
		IncludeTransparent: o.IncludeTransparent,
		PerConfigRegion:    o.PerConfigRegion,
		MaxRetries:         o.MaxRetries,
		MaxFollowers:       o.MaxFollowers,
		Workers:            o.Workers,
	}
	policy, err := cliobs.ParsePolicy(o.OnError)
	if err != nil {
		return opts, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	opts.OnError = policy
	switch {
	case o.LoHz == 0 && o.HiHz == 0:
		// Region derived from the circuit.
	case o.LoHz > 0 && o.HiHz > o.LoHz:
		opts.Region = analogdft.Region{LoHz: o.LoHz, HiHz: o.HiHz}
	default:
		return opts, fmt.Errorf("%w: region [%g, %g] Hz (want 0 < lo_hz < hi_hz)", ErrBadRequest, o.LoHz, o.HiHz)
	}
	return opts, nil
}

// Resolved is a validated request, ready to run: the bench, fault list
// and normalized options a Session will be built from, plus the job's
// content address.
type Resolved struct {
	Req     Request
	Bench   *analogdft.Bench
	Faults  analogdft.FaultList
	Options analogdft.Options
	Cost    analogdft.CostFunction
	// Key is the content-addressed cache key of the job's result.
	Key string
}

// BenchNames lists the built-in benchmark names a request may use, sorted.
func BenchNames() []string {
	lib := analogdft.CircuitLibrary()
	names := make([]string, 0, len(lib))
	for name := range lib {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Resolve validates the request and derives everything a worker needs.
// All validation errors wrap ErrBadRequest.
func (r Request) Resolve() (*Resolved, error) {
	switch r.Kind {
	case KindEvaluate, KindMatrix, KindOptimize:
	case "":
		return nil, fmt.Errorf("%w: missing kind (want evaluate, matrix or optimize)", ErrBadRequest)
	default:
		return nil, fmt.Errorf("%w: unknown kind %q (want evaluate, matrix or optimize)", ErrBadRequest, r.Kind)
	}

	bench, err := r.resolveBench()
	if err != nil {
		return nil, err
	}
	if err := bench.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	faults, err := r.Faults.build(bench)
	if err != nil {
		return nil, err
	}
	if len(faults) == 0 {
		return nil, fmt.Errorf("%w: fault universe is empty (no passive components?)", ErrBadRequest)
	}
	opts, err := r.Options.build()
	if err != nil {
		return nil, err
	}
	opts = opts.Normalize()

	cost := analogdft.ConfigCountCost
	costName := ""
	if r.Kind == KindOptimize {
		switch r.Cost {
		case "", "configs":
			cost = analogdft.ConfigCountCost
		case "opamps":
			cost = analogdft.OpampCountCost
		default:
			return nil, fmt.Errorf("%w: unknown cost %q (want configs or opamps)", ErrBadRequest, r.Cost)
		}
		costName = cost.Name
	}
	if r.Kind != KindEvaluate && len(bench.Chain) == 0 {
		return nil, fmt.Errorf("%w: %s job needs a DFT chain (add a .chain directive or pick a bench with opamps)", ErrBadRequest, r.Kind)
	}

	key, err := CacheKey(r.Kind, costName, bench.Circuit, bench.Chain, faults, opts)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return &Resolved{Req: r, Bench: bench, Faults: faults, Options: opts, Cost: cost, Key: key}, nil
}

// resolveBench loads the named benchmark or parses the inline deck.
func (r Request) resolveBench() (*analogdft.Bench, error) {
	switch {
	case r.Bench != "" && r.Deck != "":
		return nil, fmt.Errorf("%w: set bench or deck, not both", ErrBadRequest)
	case r.Bench != "":
		bench, ok := analogdft.CircuitLibrary()[r.Bench]
		if !ok {
			return nil, fmt.Errorf("%w: unknown bench %q (have %v)", ErrBadRequest, r.Bench, BenchNames())
		}
		return bench, nil
	case r.Deck != "":
		deck, err := spice.ParseString(r.Deck)
		if err != nil {
			return nil, fmt.Errorf("%w: deck: %v", ErrBadRequest, err)
		}
		chain := deck.Chain
		if len(chain) == 0 {
			for _, op := range deck.Circuit.Opamps() {
				chain = append(chain, op.Name())
			}
		}
		return &analogdft.Bench{Circuit: deck.Circuit, Chain: chain, Description: "inline deck", Deck: deck}, nil
	default:
		return nil, fmt.Errorf("%w: a bench name or an inline deck is required", ErrBadRequest)
	}
}

// build maps the spec onto a fault universe over the bench circuit.
func (f FaultSpec) build(bench *analogdft.Bench) (analogdft.FaultList, error) {
	frac := f.Frac
	if frac == 0 {
		frac = 0.20
	}
	if frac < 0 || frac >= 1 {
		return nil, fmt.Errorf("%w: fault frac %g (want 0 < frac < 1)", ErrBadRequest, f.Frac)
	}
	switch f.Universe {
	case "", "deviation":
		return analogdft.DeviationFaults(bench.Circuit, frac), nil
	case "bipolar":
		return analogdft.BipolarDeviationFaults(bench.Circuit, frac), nil
	case "catastrophic":
		return analogdft.CatastrophicFaults(bench.Circuit), nil
	default:
		return nil, fmt.Errorf("%w: unknown fault universe %q (want deviation, bipolar or catastrophic)", ErrBadRequest, f.Universe)
	}
}
