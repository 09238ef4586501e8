package fault

import (
	"fmt"

	"analogdft/internal/circuit"
)

// Opamp-internal fault kinds. The paper excludes the transparent
// configuration from the passive-fault study because it "is used to test
// faults inside opamps" [5]; these fault models complete that story. They
// require the single-pole opamp model (an ideal opamp has no internal
// parameters to degrade).
const (
	// OpampGain multiplies the open-loop DC gain A0 by Factor
	// (e.g. 0.01 for a severely degraded input stage).
	OpampGain Kind = 100 + iota
	// OpampPole multiplies the open-loop pole frequency by Factor
	// (bandwidth/slew degradation; GBW scales with it).
	OpampPole
)

// opampKindString extends Kind.String for the opamp kinds.
func opampKindString(k Kind) (string, bool) {
	switch k {
	case OpampGain:
		return "opamp-gain", true
	case OpampPole:
		return "opamp-pole", true
	}
	return "", false
}

// opampPatch is Patch for the opamp kinds: the named opamp, on the
// single-pole model, gets its A0 or pole times Factor.
func (f Fault) opampPatch(ckt *circuit.Circuit) (Patch, error) {
	comp, ok := ckt.Component(f.Component)
	if !ok {
		return Patch{}, fmt.Errorf("%w: %q", circuit.ErrUnknownName, f.Component)
	}
	op, ok := comp.(*circuit.Opamp)
	if !ok {
		return Patch{}, fmt.Errorf("%w: %s fault on non-opamp %q", ErrBadFault, f.Kind, f.Component)
	}
	if op.Model != circuit.ModelSinglePole {
		return Patch{}, fmt.Errorf("%w: %s fault needs the single-pole model on %q", ErrBadFault, f.Kind, f.Component)
	}
	p := Patch{Component: f.Component, Opamp: true, A0: op.A0, PoleHz: op.PoleHz}
	if f.Kind == OpampGain {
		p.A0 *= f.Factor
	} else {
		p.PoleHz *= f.Factor
	}
	return p, nil
}

// OpampUniverse builds opamp-internal faults for every single-pole opamp
// of the circuit: a gain-degradation fault "f<op>:a0" (A0 × gainFactor)
// and a bandwidth fault "f<op>:pole" (pole × poleFactor). Opamps still on
// the ideal model are skipped — they have no internal parameters.
func OpampUniverse(ckt *circuit.Circuit, gainFactor, poleFactor float64) List {
	var out List
	for _, op := range ckt.Opamps() {
		if op.Model != circuit.ModelSinglePole {
			continue
		}
		out = append(out,
			Fault{ID: "f" + op.Name() + ":a0", Component: op.Name(), Kind: OpampGain, Factor: gainFactor},
			Fault{ID: "f" + op.Name() + ":pole", Component: op.Name(), Kind: OpampPole, Factor: poleFactor},
		)
	}
	return out
}
