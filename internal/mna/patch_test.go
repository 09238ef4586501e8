package mna

import (
	"errors"
	"math/cmplx"
	"testing"

	"analogdft/internal/circuit"
)

// patchBench builds a circuit exercising every patchable component kind:
// R, C, L, V source, I source, VCVS, VCCS, CCVS, CCCS, plus an ideal
// opamp to keep a branch constraint in the system.
func patchBench() *circuit.Circuit {
	c := circuit.New("patchbench")
	c.V("V1", "in", "0", 1)
	c.R("R1", "in", "a", 1e3)
	c.Cap("C1", "a", "0", 10e-9)
	c.L("L1", "a", "b", 1e-3)
	c.R("R2", "b", "0", 2.2e3)
	c.I("I1", "0", "b", 1e-3)
	c.E("E1", "e", "0", "b", "0", 2)
	c.R("RE", "e", "0", 1e3)
	c.G("G1", "g", "0", "a", "0", 1e-4)
	c.R("RG", "g", "0", 4.7e3)
	c.H("H1", "h", "0", "V1", 50)
	c.R("RH", "h", "0", 1e3)
	c.F("F1", "f", "0", "V1", 0.5)
	c.R("RF", "f", "0", 3.3e3)
	c.OA("OP1", "b", "o", "o") // unity follower on node b
	return c
}

func TestSetValueMatchesRebuild(t *testing.T) {
	const freq = 12.5e3
	nodes := []string{"a", "b", "e", "g", "h", "f", "o"}
	cases := []struct {
		comp string
		v    float64
	}{
		{"R1", 1.2e3},
		{"C1", 12e-9},
		{"L1", 0.8e-3},
		{"V1", 1.5},
		{"I1", 2e-3},
		{"E1", 2.4},
		{"G1", 1.2e-4},
		{"H1", 60},
		{"F1", 0.4},
	}
	for _, tc := range cases {
		t.Run(tc.comp, func(t *testing.T) {
			base := patchBench()
			sys, err := NewSystem(base)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.SetValue(tc.comp, tc.v); err != nil {
				t.Fatalf("SetValue(%s, %g): %v", tc.comp, tc.v, err)
			}
			got, err := sys.SolveAt(freq)
			if err != nil {
				t.Fatal(err)
			}

			// Reference: mutate a clone and rebuild from scratch.
			ref := patchBench()
			val, err := ref.Valued(tc.comp)
			if err != nil {
				t.Fatal(err)
			}
			val.SetValue(tc.v)
			refSys, err := NewSystem(ref)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refSys.SolveAt(freq)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range nodes {
				g, _ := got.Voltage(n)
				w, _ := want.Voltage(n)
				if d := cmplx.Abs(g - w); d > 1e-12*(1+cmplx.Abs(w)) {
					t.Errorf("node %s: patched %v vs rebuilt %v (|Δ|=%g)", n, g, w, d)
				}
			}
		})
	}
}

func TestResetRestoresStampsExactly(t *testing.T) {
	sys, err := NewSystem(patchBench())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SolveAt(1e3); err != nil { // force stamp build
		t.Fatal(err)
	}
	g0 := append([]complex128(nil), sys.gval...)
	c0 := append([]complex128(nil), sys.cval...)
	r0 := append([]complex128(nil), sys.rhs0...)

	// Patch several overlapping components (R1 and C1 share node "a"),
	// repatch one, then reset: every stamp must be bit-identical.
	for _, p := range []struct {
		name string
		v    float64
	}{{"R1", 1.5e3}, {"C1", 22e-9}, {"V1", 2}, {"R1", 0.7e3}, {"L1", 2e-3}, {"G1", 3e-4}} {
		if err := sys.SetValue(p.name, p.v); err != nil {
			t.Fatalf("SetValue(%s): %v", p.name, err)
		}
	}
	if !sys.Patched() {
		t.Fatal("Patched() = false after SetValue")
	}
	sys.Reset()
	if sys.Patched() {
		t.Fatal("Patched() = true after Reset")
	}
	for i := range g0 {
		if sys.gval[i] != g0[i] {
			t.Fatalf("G[%d] drifted: %v != %v", i, sys.gval[i], g0[i])
		}
	}
	for i := range c0 {
		if sys.cval[i] != c0[i] {
			t.Fatalf("C[%d] drifted: %v != %v", i, sys.cval[i], c0[i])
		}
	}
	for i := range r0 {
		if sys.rhs0[i] != r0[i] {
			t.Fatalf("rhs0[%d] drifted: %v != %v", i, sys.rhs0[i], r0[i])
		}
	}
}

func TestRepeatedSetValueComposes(t *testing.T) {
	const freq = 5e3
	sys, err := NewSystem(patchBench())
	if err != nil {
		t.Fatal(err)
	}
	// Two successive patches: the last one wins.
	if err := sys.SetValue("R1", 5e3); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetValue("R1", 1.2e3); err != nil {
		t.Fatal(err)
	}
	got, err := sys.SolveAt(freq)
	if err != nil {
		t.Fatal(err)
	}

	ref := patchBench()
	v, _ := ref.Valued("R1")
	v.SetValue(1.2e3)
	refSys, err := NewSystem(ref)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refSys.SolveAt(freq)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := got.Voltage("b")
	w, _ := want.Voltage("b")
	if d := cmplx.Abs(g - w); d > 1e-12*(1+cmplx.Abs(w)) {
		t.Fatalf("composed patch: %v vs %v", g, w)
	}
}

func TestSetValueUnsupported(t *testing.T) {
	sys, err := NewSystem(patchBench())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetValue("OP1", 2); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("opamp patch: err = %v, want ErrUnsupported", err)
	}
	if err := sys.SetValue("R1", 0); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("zero-resistance patch: err = %v, want ErrUnsupported", err)
	}
	if err := sys.SetValue("nope", 1); err == nil {
		t.Fatal("unknown component patch: err = nil")
	}
	// Failed patches must leave the system un-patched.
	if sys.Patched() {
		t.Fatal("Patched() = true after only failed patches")
	}
}
