package fault

import (
	"errors"
	"testing"

	"analogdft/internal/circuit"
)

func patchCircuit() *circuit.Circuit {
	c := circuit.New("p")
	c.V("V1", "in", "0", 1)
	c.R("R1", "in", "out", 1e3)
	c.Cap("C1", "out", "0", 10e-9)
	c.OASinglePole("OP1", "0", "out", "out", 1e5, 10)
	return c
}

func TestPatchValueDeviation(t *testing.T) {
	ckt := patchCircuit()
	f := Fault{ID: "fR1", Component: "R1", Kind: Deviation, Factor: 1.2}
	p, err := f.Patch(ckt)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Patch{Component: "R1", Value: 1.2e3}); p != want {
		t.Fatalf("Patch = %+v, want %+v", p, want)
	}
	// The circuit must be untouched.
	val, _ := ckt.Valued("R1")
	if val.Value() != 1e3 {
		t.Fatalf("Patch mutated the circuit: R1 = %g", val.Value())
	}
}

// TestPatchEveryKind holds every fault kind to one patch: opens and
// shorts set the value to the emulating extreme, opamp faults the faulty
// A0 or pole, and Apply's clone holds exactly what the patch states.
func TestPatchEveryKind(t *testing.T) {
	ckt := patchCircuit()
	// Variables, so the products round as the patch's do at run time.
	rv, cv := 1e3, 10e-9
	for _, c := range []struct {
		f    Fault
		want Patch
	}{
		{Fault{ID: "o", Component: "R1", Kind: Open}, Patch{Component: "R1", Value: rv * openFactor}},
		{Fault{ID: "s", Component: "R1", Kind: Short}, Patch{Component: "R1", Value: rv * shortFactor}},
		{Fault{ID: "co", Component: "C1", Kind: Open}, Patch{Component: "C1", Value: cv * shortFactor}},
		{Fault{ID: "cs", Component: "C1", Kind: Short}, Patch{Component: "C1", Value: cv * openFactor}},
		{Fault{ID: "v", Component: "V1", Kind: Deviation, Factor: 0.5}, Patch{Component: "V1", Value: 0.5}},
		{Fault{ID: "g", Component: "OP1", Kind: OpampGain, Factor: 0.5}, Patch{Component: "OP1", Opamp: true, A0: 0.5e5, PoleHz: 10}},
		{Fault{ID: "p", Component: "OP1", Kind: OpampPole, Factor: 2}, Patch{Component: "OP1", Opamp: true, A0: 1e5, PoleHz: 20}},
	} {
		p, err := c.f.Patch(ckt)
		if err != nil {
			t.Fatalf("%s: %v", c.f.ID, err)
		}
		if p != c.want {
			t.Errorf("%s: Patch = %+v, want %+v", c.f.ID, p, c.want)
		}
		faulty, err := c.f.Apply(ckt)
		if err != nil {
			t.Fatalf("%s: %v", c.f.ID, err)
		}
		comp, _ := faulty.Component(p.Component)
		if op, ok := comp.(*circuit.Opamp); ok && p.Opamp {
			if op.A0 != p.A0 || op.PoleHz != p.PoleHz {
				t.Errorf("%s: Apply set A0 %g pole %g, the patch states %g and %g", c.f.ID, op.A0, op.PoleHz, p.A0, p.PoleHz)
			}
		} else if got := comp.(circuit.Valued).Value(); got != p.Value {
			t.Errorf("%s: Apply set %g, the patch states %g", c.f.ID, got, p.Value)
		}
	}
}

// TestPatchErrorsMatchApply holds Patch to Apply's error text for faults
// that do not apply to their component.
func TestPatchErrorsMatchApply(t *testing.T) {
	ckt := patchCircuit()
	ideal := patchCircuit()
	op, _ := ideal.Component("OP1")
	op.(*circuit.Opamp).Model = circuit.ModelIdeal
	for _, c := range []struct {
		ckt *circuit.Circuit
		f   Fault
	}{
		{ckt, Fault{ID: "o", Component: "V1", Kind: Open}},
		{ckt, Fault{ID: "g", Component: "R1", Kind: OpampGain, Factor: 0.5}},
		{ckt, Fault{ID: "g", Component: "OP9", Kind: OpampGain, Factor: 0.5}},
		{ckt, Fault{ID: "d", Component: "OP1", Kind: Deviation, Factor: 1.2}},
		{ideal, Fault{ID: "g", Component: "OP1", Kind: OpampGain, Factor: 0.5}},
	} {
		_, perr := c.f.Patch(c.ckt)
		_, aerr := c.f.Apply(c.ckt)
		if perr == nil || aerr == nil || perr.Error() != aerr.Error() {
			t.Errorf("%s on %s: Patch err %v, Apply err %v", c.f.Kind, c.f.Component, perr, aerr)
		}
	}
}

func TestPatchValueErrors(t *testing.T) {
	ckt := patchCircuit()
	if _, err := (Fault{ID: "x", Component: "nope", Kind: Deviation, Factor: 1.2}).Patch(ckt); err == nil {
		t.Fatal("unknown component: err = nil")
	}
	if _, err := (Fault{Component: "R1", Kind: Deviation, Factor: 1.2}).Patch(ckt); !errors.Is(err, ErrBadFault) {
		t.Fatal("missing ID must fail validation")
	}
}
