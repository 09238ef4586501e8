// Package fault defines the fault models and fault-list generation used by
// the testability analysis: soft (parametric deviation) faults on passive
// components — the fault universe of the paper's experiments — plus
// catastrophic open/short faults as an extension.
//
// What a Fault does is one Patch: a component's value, or a single-pole
// opamp's model, set to faulty values. Apply sets it on a clone of the
// circuit, and engines patch it into a live system in place, so fault
// simulation never disturbs the nominal netlist.
package fault

import (
	"errors"
	"fmt"

	"analogdft/internal/circuit"
)

// ErrBadFault is returned for malformed faults.
var ErrBadFault = errors.New("fault: bad fault")

// Kind distinguishes fault models.
type Kind int

// Fault kinds.
const (
	// Deviation multiplies the component value by Factor (soft fault).
	Deviation Kind = iota
	// Open turns the component into (approximately) an open circuit.
	Open
	// Short turns the component into (approximately) a short circuit.
	Short
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Deviation:
		return "deviation"
	case Open:
		return "open"
	case Short:
		return "short"
	default:
		if s, ok := opampKindString(k); ok {
			return s
		}
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// isParametric reports whether the kind scales a parameter by Factor (and
// therefore needs a meaningful Factor).
func (k Kind) isParametric() bool {
	return k == Deviation || k == OpampGain || k == OpampPole
}

// isOpamp reports whether the kind targets an opamp's internal model.
func (k Kind) isOpamp() bool { return k == OpampGain || k == OpampPole }

// Extreme multipliers used to emulate catastrophic faults through the
// value-mutation interface. For a resistor, a huge value is an open and a
// tiny one a short; for a capacitor (admittance jωC) the roles flip.
const (
	openFactor  = 1e9
	shortFactor = 1e-9
)

// Fault is a single fault on a named component.
type Fault struct {
	// ID is a short unique label, e.g. "fR1" or "R1+20%".
	ID string
	// Component is the name of the faulted component.
	Component string
	// Kind selects the fault model.
	Kind Kind
	// Factor is the value multiplier for Deviation faults (e.g. 1.2 for
	// +20%, 0.8 for −20%). Ignored for Open/Short.
	Factor float64
}

// String implements fmt.Stringer.
func (f Fault) String() string {
	switch f.Kind {
	case Deviation:
		return fmt.Sprintf("%s(%s×%g)", f.ID, f.Component, f.Factor)
	default:
		return fmt.Sprintf("%s(%s %s)", f.ID, f.Component, f.Kind)
	}
}

// Validate checks the fault definition.
func (f Fault) Validate() error {
	if f.ID == "" || f.Component == "" {
		return fmt.Errorf("%w: missing ID or component", ErrBadFault)
	}
	if f.Kind.isParametric() && (f.Factor <= 0 || f.Factor == 1) {
		return fmt.Errorf("%w: %s factor %g", ErrBadFault, f.Kind, f.Factor)
	}
	return nil
}

// multiplier returns the value multiplier to apply for this fault on a
// component of the given kind.
func (f Fault) multiplier(kind circuit.Kind) (float64, error) {
	switch f.Kind {
	case Deviation:
		return f.Factor, nil
	case Open:
		switch kind {
		case circuit.KindResistor, circuit.KindInductor:
			return openFactor, nil
		case circuit.KindCapacitor:
			return shortFactor, nil // tiny C ⇒ open branch
		}
	case Short:
		switch kind {
		case circuit.KindResistor, circuit.KindInductor:
			return shortFactor, nil
		case circuit.KindCapacitor:
			return openFactor, nil // huge C ⇒ short branch
		}
	}
	return 0, fmt.Errorf("%w: %s fault on %v component", ErrBadFault, f.Kind, kind)
}

// Patch is what a fault does to its circuit: it sets the primary value
// of component Component to Value, or, for an opamp fault, the
// single-pole opamp's model to A0 and PoleHz. It is the one statement of
// a fault, read by Apply, which sets it on a clone, and by engines that
// patch a live system in place (analysis.Engine.ApplyFault), so the two
// cannot disagree on what a fault is.
type Patch struct {
	Component  string
	Value      float64
	Opamp      bool
	A0, PoleHz float64
}

// Patch states what f does to ckt, which is only read, never mutated:
// an R, L or C fault — or a deviation of any valued component — sets the
// primary value to its nominal times the kind's multiplier (Factor for a
// deviation; the extreme factors emulating an open or a short), and an
// opamp fault sets the single-pole opamp's A0 or pole to its nominal
// times Factor and the other to its nominal. A fault that does not apply
// to its component returns an error wrapping ErrBadFault.
func (f Fault) Patch(ckt *circuit.Circuit) (Patch, error) {
	if err := f.Validate(); err != nil {
		return Patch{}, err
	}
	if f.Kind.isOpamp() {
		return f.opampPatch(ckt)
	}
	v, err := ckt.Valued(f.Component)
	if err != nil {
		return Patch{}, err
	}
	comp, _ := ckt.Component(f.Component)
	mult, err := f.multiplier(comp.Kind())
	if err != nil {
		return Patch{}, err
	}
	return Patch{Component: f.Component, Value: v.Value() * mult}, nil
}

// Apply returns a faulty deep copy of the circuit: a clone with f's Patch
// set. The original circuit is untouched.
func (f Fault) Apply(ckt *circuit.Circuit) (*circuit.Circuit, error) {
	p, err := f.Patch(ckt)
	if err != nil {
		return nil, err
	}
	faulty := ckt.Clone()
	comp, _ := faulty.Component(p.Component)
	if p.Opamp {
		op := comp.(*circuit.Opamp)
		op.A0, op.PoleHz = p.A0, p.PoleHz
	} else {
		comp.(circuit.Valued).SetValue(p.Value)
	}
	faulty.Name = fmt.Sprintf("%s[%s]", ckt.Name, f.ID)
	return faulty, nil
}

// List is an ordered fault list.
type List []Fault

// IDs returns the fault identifiers in order.
func (l List) IDs() []string {
	out := make([]string, len(l))
	for i, f := range l {
		out[i] = f.ID
	}
	return out
}

// ByID looks up a fault by identifier.
func (l List) ByID(id string) (Fault, bool) {
	for _, f := range l {
		if f.ID == id {
			return f, true
		}
	}
	return Fault{}, false
}

// Validate checks every fault and ID uniqueness.
func (l List) Validate() error {
	seen := make(map[string]bool, len(l))
	for _, f := range l {
		if err := f.Validate(); err != nil {
			return err
		}
		if seen[f.ID] {
			return fmt.Errorf("%w: duplicate fault ID %q", ErrBadFault, f.ID)
		}
		seen[f.ID] = true
	}
	return nil
}

// DeviationUniverse builds the paper's fault universe: a single deviation
// fault of the given fraction (e.g. 0.2 for 20%) on every passive
// component, in netlist order, with IDs "f<component>" as in the paper
// (fR1, fR2, …, fC2).
func DeviationUniverse(ckt *circuit.Circuit, frac float64) List {
	var out List
	for _, p := range ckt.Passives() {
		out = append(out, Fault{
			ID:        "f" + p.Name(),
			Component: p.Name(),
			Kind:      Deviation,
			Factor:    1 + frac,
		})
	}
	return out
}

// BipolarDeviationUniverse builds ± deviation faults on every passive
// component: "f<component>+" (value × (1+frac)) and "f<component>-"
// (value × (1−frac)).
func BipolarDeviationUniverse(ckt *circuit.Circuit, frac float64) List {
	var out List
	for _, p := range ckt.Passives() {
		out = append(out,
			Fault{ID: "f" + p.Name() + "+", Component: p.Name(), Kind: Deviation, Factor: 1 + frac},
			Fault{ID: "f" + p.Name() + "-", Component: p.Name(), Kind: Deviation, Factor: 1 - frac},
		)
	}
	return out
}

// CatastrophicUniverse builds open and short faults on every passive
// component with IDs "<component>:open" / "<component>:short".
func CatastrophicUniverse(ckt *circuit.Circuit) List {
	var out List
	for _, p := range ckt.Passives() {
		out = append(out,
			Fault{ID: p.Name() + ":open", Component: p.Name(), Kind: Open},
			Fault{ID: p.Name() + ":short", Component: p.Name(), Kind: Short},
		)
	}
	return out
}
