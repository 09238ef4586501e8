package analogdft

import (
	"context"

	"analogdft/internal/analysis"
	"analogdft/internal/boolexpr"
	"analogdft/internal/circuit"
	"analogdft/internal/circuits"
	"analogdft/internal/core"
	"analogdft/internal/detect"
	"analogdft/internal/dft"
	"analogdft/internal/fault"
)

// Re-exported types. The implementation lives in internal packages; these
// aliases form the public surface of the library.
type (
	// Circuit is a netlist of components with designated input/output.
	Circuit = circuit.Circuit
	// Component is any netlist element.
	Component = circuit.Component
	// Opamp is an (ideal or single-pole) operational amplifier.
	Opamp = circuit.Opamp
	// Bench bundles a benchmark circuit with its recommended DFT chain.
	Bench = circuits.Bench
	// Fault is a single fault (deviation, open or short).
	Fault = fault.Fault
	// FaultList is an ordered fault universe.
	FaultList = fault.List
	// SweepSpec describes a logarithmic frequency sweep.
	SweepSpec = analysis.SweepSpec
	// Region is a frequency interval (Ω_reference).
	Region = analysis.Region
	// Response is a sampled transfer function.
	Response = analysis.Response
	// Options parameterizes testability evaluation (ε, grid, floor,
	// region, parallelism, error policy).
	Options = detect.Options
	// Row is a fault list evaluated against one circuit.
	Row = detect.Row
	// Matrix is the fault detectability matrix across configurations.
	Matrix = detect.Matrix
	// CellError is a structured record of one failed matrix cell
	// (configuration, fault, cause).
	CellError = detect.CellError
	// ErrorPolicy selects how failed cells are treated (Degrade,
	// FailFast or Retry).
	ErrorPolicy = detect.ErrorPolicy
	// EngineMode selects the cell simulation strategy
	// (EngineIncremental or EngineLowRank).
	EngineMode = detect.EngineMode
	// SimStats summarizes fault-simulation effort (cells, solves,
	// singular points, retries, errors, wall time).
	SimStats = detect.Stats
	// Modified is a DFT-modified circuit (configurable opamps + chain).
	Modified = dft.Modified
	// Configuration identifies one test configuration.
	Configuration = dft.Configuration
	// Candidate is a configuration set satisfying maximum fault coverage.
	Candidate = core.Candidate
	// CostFunction is a 2nd-order (user-defined) requirement.
	CostFunction = core.CostFunction
	// Result is the output of Optimize.
	Result = core.Result
	// OpampResult is the output of OptimizeOpamps (§4.3 partial DFT).
	OpampResult = core.OpampResult
	// Baseline is the brute-force all-configurations reference point.
	Baseline = core.Baseline
	// SOP is a sum-of-products covering expression.
	SOP = boolexpr.SOP
	// Expr is a product-of-sums covering expression (ξ).
	Expr = boolexpr.Expr
)

// Error policies for Options.OnError.
const (
	// Degrade records failed cells in Matrix.CellErrors and keeps going
	// (the default).
	Degrade = detect.Degrade
	// FailFast aborts the evaluation on the first failed cell.
	FailFast = detect.FailFast
	// Retry re-solves singular grid points on a deterministically
	// jittered grid before degrading.
	Retry = detect.Retry
)

// Engine modes for Options.Engine.
const (
	// EngineIncremental patches faults into a reusable per-configuration
	// system in place — no clone, no rebuild (the default). Faults that
	// cannot be patched (opens, shorts, opamp model faults) are cloned
	// and rebuilt cell by cell.
	EngineIncremental = detect.EngineIncremental
	// EngineLowRank factors the nominal system once per (configuration,
	// frequency) grid point and solves rank-1 faults against the cached
	// factorizations via Sherman–Morrison, falling back to the
	// incremental path for faults that are not rank-1 updates. It matches
	// the other modes within rounding, so cells whose |ΔT/T| sits exactly
	// on ε at some grid point can get a different verdict.
	EngineLowRank = detect.EngineLowRank
)

// ParseEngineMode maps an -engine flag value ("incremental" or
// "lowrank") onto an engine mode.
func ParseEngineMode(name string) (EngineMode, error) {
	return detect.ParseEngineMode(name)
}

// Predefined 2nd-order cost functions.
var (
	// ConfigCountCost minimizes the number of test configurations (§4.2).
	ConfigCountCost = core.ConfigCountCost
	// OpampCountCost minimizes the number of configurable opamps (§4.3).
	OpampCountCost = core.OpampCountCost
)

// WeightedCost blends configuration and opamp counts.
func WeightedCost(wConfigs, wOpamps float64) CostFunction {
	return core.WeightedCost(wConfigs, wOpamps)
}

// NewCircuit returns an empty circuit with the given name.
func NewCircuit(name string) *Circuit { return circuit.New(name) }

// Benchmark circuit constructors.
var (
	// PaperBiquad is the Tow–Thomas biquad standing in for Figure 1.
	PaperBiquad = circuits.PaperBiquad
	// SallenKeyLowpass is a unity-gain 2nd-order Butterworth lowpass.
	SallenKeyLowpass = circuits.SallenKeyLowpass
	// SingleOpampBandpass is an inverting one-opamp wide bandpass.
	SingleOpampBandpass = circuits.SingleOpampBandpass
	// KHNStateVariable is a three-opamp state-variable filter.
	KHNStateVariable = circuits.KHNStateVariable
	// MultiStageLowpass cascades n first-order inverting lowpass stages.
	MultiStageLowpass = circuits.MultiStageLowpass
	// BiquadCascade cascades n Tow–Thomas biquads (3n opamps).
	BiquadCascade = circuits.BiquadCascade
	// CircuitLibrary returns every fixed benchmark circuit by name.
	CircuitLibrary = circuits.Library
)

// DeviationFaults builds the paper's fault universe: one +frac deviation
// fault per passive component.
func DeviationFaults(ckt *Circuit, frac float64) FaultList {
	return fault.DeviationUniverse(ckt, frac)
}

// BipolarDeviationFaults builds ±frac deviation faults per passive.
func BipolarDeviationFaults(ckt *Circuit, frac float64) FaultList {
	return fault.BipolarDeviationUniverse(ckt, frac)
}

// CatastrophicFaults builds open/short faults per passive component.
func CatastrophicFaults(ckt *Circuit) FaultList {
	return fault.CatastrophicUniverse(ckt)
}

// Sweep samples the circuit's transfer function over a log grid.
func Sweep(ckt *Circuit, spec SweepSpec) (*Response, error) {
	return analysis.Sweep(ckt, spec)
}

// RetrySingularPoints re-solves a response's invalid (singular) grid
// points in place on a deterministically jittered grid. It returns how
// many points were recovered and how many extra solves were spent.
func RetrySingularPoints(ckt *Circuit, resp *Response, attempts int) (recovered, solves int, err error) {
	return analysis.RetrySingularPoints(ckt, resp, attempts)
}

// ClassifyError buckets a simulation error (singular system, unsupported
// element, invalid netlist, other) for reporting and policy decisions.
func ClassifyError(err error) analysis.ErrorClass { return analysis.ClassifyError(err) }

// ReferenceRegion derives Ω_reference for a circuit (§2, Definition 2).
func ReferenceRegion(ckt *Circuit) (Region, error) {
	return analysis.ReferenceRegion(ckt, analysis.SweepSpec{})
}

// EvaluateCircuit measures detectability and ω-detectability of each fault
// on a fixed circuit (the §2 analysis). New code should prefer
// EvaluateCircuitContext, which supports cancellation; this variant runs
// to completion.
func EvaluateCircuit(ckt *Circuit, faults FaultList, opts Options) (*Row, error) {
	return detect.EvaluateCircuit(ckt, faults, opts)
}

// EvaluateCircuitContext is EvaluateCircuit with cancellation: ctx is
// checked between fault cells, so an in-flight evaluation stops within one
// cell boundary of ctx being cancelled and returns ctx's error.
func EvaluateCircuitContext(ctx context.Context, ckt *Circuit, faults FaultList, opts Options) (*Row, error) {
	return detect.EvaluateCircuitContext(ctx, ckt, faults, opts)
}

// ApplyDFT replaces the named opamps by configurable opamps chained from
// the primary input (§3.1). Passing every opamp is the systematic
// replacement of the paper; a subset yields a partial DFT.
func ApplyDFT(ckt *Circuit, chain []string) (*Modified, error) {
	return dft.Apply(ckt, chain)
}

// ApplyDFTAll applies the DFT to every opamp in netlist order.
func ApplyDFTAll(ckt *Circuit) (*Modified, error) { return dft.ApplyAll(ckt) }

// BuildMatrix fault-simulates every configuration into the fault
// detectability matrix (§3.2). New code should prefer BuildMatrixContext,
// which supports cancellation; this variant runs to completion.
func BuildMatrix(m *Modified, faults FaultList, opts Options) (*Matrix, error) {
	return detect.BuildMatrix(m, faults, opts)
}

// BuildMatrixContext is BuildMatrix with cancellation: ctx is checked
// between (configuration, fault) cells and between the per-configuration
// nominal pre-sweeps, so an in-flight build stops within one cell boundary
// of ctx being cancelled and returns ctx's error.
func BuildMatrixContext(ctx context.Context, m *Modified, faults FaultList, opts Options) (*Matrix, error) {
	return detect.BuildMatrixContext(ctx, m, faults, opts)
}

// Optimize runs the §4 ordered-requirement optimization over a matrix.
// New code should prefer OptimizeContext, which supports cancellation;
// this variant runs to completion.
func Optimize(mx *Matrix, chain []string, cost CostFunction) (*Result, error) {
	return core.Optimize(mx, chain, cost)
}

// OptimizeContext is Optimize with cancellation: the Petrick expansion
// polls ctx between clauses and product-term batches, so a
// combinatorially exploding optimization stops promptly (returning ctx's
// error) when the caller cancels.
func OptimizeContext(ctx context.Context, mx *Matrix, chain []string, cost CostFunction) (*Result, error) {
	return core.OptimizeContext(ctx, mx, chain, cost)
}

// OptimizeOpamps runs the §4.3 partial-DFT (configurable-opamp count)
// optimization.
func OptimizeOpamps(mx *Matrix, chain []string) (*OpampResult, error) {
	return core.OptimizeOpamps(mx, chain)
}

// BruteForce evaluates the all-configurations baseline (§3.2).
func BruteForce(mx *Matrix) *Baseline { return core.BruteForce(mx) }

// GreedySolution runs the greedy set-cover baseline.
func GreedySolution(mx *Matrix, chain []string) (*Candidate, error) {
	return core.GreedySolution(mx, chain)
}

// ExactMinSolution runs the exact branch-and-bound minimum cover.
func ExactMinSolution(mx *Matrix, chain []string) (*Candidate, error) {
	return core.ExactMinSolution(mx, chain)
}
