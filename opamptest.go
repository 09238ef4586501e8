package analogdft

import (
	"fmt"

	"analogdft/internal/circuit"
	"analogdft/internal/detect"
	"analogdft/internal/dft"
	"analogdft/internal/fault"
)

// WithSinglePoleOpamps returns a copy of the bench in which every ideal
// opamp is replaced by the single-pole model A(jω) = A0/(1 + jω/ωp). Use
// this to enable opamp-internal fault analysis (the ideal model has no
// parameters to degrade).
func WithSinglePoleOpamps(b *Bench, a0, poleHz float64) *Bench {
	ckt := b.Circuit.Clone()
	for _, op := range ckt.Opamps() {
		op.Model = circuit.ModelSinglePole
		if op.A0 == 0 {
			op.A0 = a0
		}
		if op.PoleHz == 0 {
			op.PoleHz = poleHz
		}
	}
	return &Bench{
		Circuit:     ckt,
		Chain:       append([]string(nil), b.Chain...),
		Description: b.Description + fmt.Sprintf(" (single-pole opamps, A0=%.3g, pole=%.3g Hz)", a0, poleHz),
	}
}

// OpampFaults builds the opamp-internal fault universe: gain degradation
// (A0 × gainFactor) and bandwidth degradation (pole × poleFactor) on every
// single-pole opamp.
func OpampFaults(ckt *Circuit, gainFactor, poleFactor float64) FaultList {
	return fault.OpampUniverse(ckt, gainFactor, poleFactor)
}

// OpampTest is the §3.1 transparent-configuration experiment: the
// transparent configuration (every opamp in follower mode) performs the
// identity function and cannot detect passive faults, but it exposes the
// opamps themselves — an internal fault degrades one follower in the
// buffer chain and the identity function breaks near the opamp bandwidth.
type OpampTest struct {
	// Bench is the circuit with single-pole opamps.
	Bench *Bench
	// Faults is the opamp-internal fault universe.
	Faults FaultList
	// Transparent is the evaluation of the opamp faults in the
	// transparent configuration.
	Transparent *Row
	// Functional is the same evaluation in the functional configuration,
	// for comparison.
	Functional *Row
	// PassiveInTransparent evaluates the passive deviation faults in the
	// transparent configuration — the paper's observation that it "does
	// not permit the detection of the faults on passive components".
	PassiveInTransparent *Row
}

// RunOpampTest executes the transparent-configuration experiment on a
// bench (converted to single-pole opamps with the given parameters).
// gainFactor/poleFactor size the internal faults; passiveFrac sizes the
// passive deviation faults used for the negative control.
func RunOpampTest(b *Bench, a0, poleHz, gainFactor, poleFactor, passiveFrac float64, opts Options) (*OpampTest, error) {
	sp := WithSinglePoleOpamps(b, a0, poleHz)
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	mod, err := ApplyDFT(sp.Circuit, sp.Chain)
	if err != nil {
		return nil, err
	}
	transparentCfg := dft.Configuration{Index: mod.NumConfigurations() - 1, N: mod.N()}
	transparent, err := mod.Configure(transparentCfg)
	if err != nil {
		return nil, err
	}
	functional, err := mod.Configure(dft.Configuration{Index: 0, N: mod.N()})
	if err != nil {
		return nil, err
	}

	res := &OpampTest{
		Bench:  sp,
		Faults: OpampFaults(sp.Circuit, gainFactor, poleFactor),
	}
	if len(res.Faults) == 0 {
		return nil, fmt.Errorf("analogdft: no single-pole opamps to test")
	}

	// The transparent configuration's own response (a buffer chain flat to
	// ≈ the opamp GBW) defines the reference region for the opamp test;
	// leave opts.Region zero to derive it from each circuit under test.
	if res.Transparent, err = detect.EvaluateCircuit(transparent, res.Faults, opts); err != nil {
		return nil, fmt.Errorf("transparent evaluation: %w", err)
	}
	if res.Functional, err = detect.EvaluateCircuit(functional, res.Faults, opts); err != nil {
		return nil, fmt.Errorf("functional evaluation: %w", err)
	}
	passive := DeviationFaults(sp.Circuit, passiveFrac)
	if opts.Region == (Region{}) {
		// The same circuit: its region is the one just derived.
		opts.Region = res.Transparent.Region
	}
	if res.PassiveInTransparent, err = detect.EvaluateCircuit(transparent, passive, opts); err != nil {
		return nil, fmt.Errorf("passive-in-transparent evaluation: %w", err)
	}
	return res, nil
}
