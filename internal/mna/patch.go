package mna

import (
	"fmt"

	"analogdft/internal/circuit"
)

// SetValue patches the cached split stamps so the named component behaves
// as if its primary value were v — a resistance in ohms, capacitance in
// farads, inductance in henries, source amplitude, or controlled-source
// gain — without cloning the circuit or rebuilding the index maps. Only
// the handful of matrix entries the component stamps are touched; the
// circuit itself is never mutated.
//
// The first time an entry is patched its pre-patch value is snapshotted,
// and Reset restores every snapshot bit-for-bit, so the nominal stamps
// cannot drift no matter how many patch/Reset cycles run. Repeated
// SetValue calls on the same component compose (the delta is computed
// from the current patched value).
//
// Components whose behavior is not a single stamped value — opamps, and a
// resistor patched to exactly zero (infinite conductance) — return an
// error wrapping ErrUnsupported; callers fall back to cloning the circuit
// and building a fresh System.
func (s *System) SetValue(name string, v float64) error {
	if !s.stampsBuilt {
		if err := s.buildStamps(); err != nil {
			return err
		}
		accountStamps(true)
	}
	comp, ok := s.ckt.Component(name)
	if !ok {
		return fmt.Errorf("mna: unknown component %q", name)
	}
	if s.patchedVals == nil {
		s.patchedVals = make(map[string]float64)
		s.snapG = make(map[int]complex128)
		s.snapC = make(map[int]complex128)
		s.snapRHS = make(map[int]complex128)
	}
	old, patched := s.patchedVals[name]

	switch c := comp.(type) {
	case *circuit.Resistor:
		if !patched {
			old = c.Ohms
		}
		if old == 0 || v == 0 {
			return fmt.Errorf("%w: resistor %q patched to zero resistance", ErrUnsupported, name)
		}
		s.patchConductance(s.targetG(), s.node(c.A), s.node(c.B), complex(1/v-1/old, 0))

	case *circuit.Capacitor:
		if !patched {
			old = c.Farads
		}
		s.patchConductance(s.targetC(), s.node(c.A), s.node(c.B), complex(v-old, 0))

	case *circuit.Inductor:
		if !patched {
			old = c.Henries
		}
		br := s.branchOf[name]
		s.patchEntry(s.targetC(), br, br, -complex(v-old, 0))

	case *circuit.VSource:
		if !patched {
			old = c.Amplitude
		}
		br := s.branchOf[name]
		if _, seen := s.snapRHS[br]; !seen {
			s.snapRHS[br] = s.rhs0[br]
		}
		s.rhs0[br] += complex(v-old, 0)

	case *circuit.ISource:
		if !patched {
			old = c.Amplitude
		}
		d := complex(v-old, 0)
		if p := s.node(c.Plus); p >= 0 {
			if _, seen := s.snapRHS[p]; !seen {
				s.snapRHS[p] = s.rhs0[p]
			}
			s.rhs0[p] -= d
		}
		if q := s.node(c.Minus); q >= 0 {
			if _, seen := s.snapRHS[q]; !seen {
				s.snapRHS[q] = s.rhs0[q]
			}
			s.rhs0[q] += d
		}

	case *circuit.VCVS:
		if !patched {
			old = c.Gain
		}
		br, d := s.branchOf[name], complex(v-old, 0)
		if cp := s.node(c.CtrlP); cp >= 0 {
			s.patchEntry(s.targetG(), br, cp, -d)
		}
		if cq := s.node(c.CtrlM); cq >= 0 {
			s.patchEntry(s.targetG(), br, cq, d)
		}

	case *circuit.VCCS:
		if !patched {
			old = c.Gm
		}
		d := complex(v-old, 0)
		op, om := s.node(c.OutP), s.node(c.OutM)
		cp, cq := s.node(c.CtrlP), s.node(c.CtrlM)
		for _, t := range []struct {
			row int
			sgn complex128
		}{{op, 1}, {om, -1}} {
			if t.row < 0 {
				continue
			}
			if cp >= 0 {
				s.patchEntry(s.targetG(), t.row, cp, t.sgn*d)
			}
			if cq >= 0 {
				s.patchEntry(s.targetG(), t.row, cq, -t.sgn*d)
			}
		}

	case *circuit.CCVS:
		if !patched {
			old = c.Rt
		}
		ctrlBr, okBr := s.branchOf[c.CtrlVSource]
		if !okBr {
			return fmt.Errorf("%w: CCVS %q controls through %q, which has no branch current", ErrUnsupported, name, c.CtrlVSource)
		}
		s.patchEntry(s.targetG(), s.branchOf[name], ctrlBr, complex(-(v-old), 0))

	case *circuit.CCCS:
		if !patched {
			old = c.Gain
		}
		ctrlBr, okBr := s.branchOf[c.CtrlVSource]
		if !okBr {
			return fmt.Errorf("%w: CCCS %q controls through %q, which has no branch current", ErrUnsupported, name, c.CtrlVSource)
		}
		d := complex(v-old, 0)
		if op := s.node(c.OutP); op >= 0 {
			s.patchEntry(s.targetG(), op, ctrlBr, d)
		}
		if om := s.node(c.OutM); om >= 0 {
			s.patchEntry(s.targetG(), om, ctrlBr, -d)
		}

	default:
		return fmt.Errorf("%w: cannot patch %T %q", ErrUnsupported, comp, name)
	}

	s.patchedVals[name] = v
	return nil
}

// Reset restores every stamp entry touched by SetValue to its snapshotted
// nominal value — an exact bitwise restore, not an inverse delta — and
// forgets all patches. A System with no live patches is untouched.
func (s *System) Reset() {
	if len(s.patchedVals) == 0 {
		return
	}
	for slot, v := range s.snapG {
		s.gval[slot] = v
	}
	for slot, v := range s.snapC {
		s.cval[slot] = v
	}
	for idx, v := range s.snapRHS {
		s.rhs0[idx] = v
	}
	clear(s.snapG)
	clear(s.snapC)
	clear(s.snapRHS)
	clear(s.patchedVals)
}

// Patched reports whether any component value is currently patched.
func (s *System) Patched() bool { return len(s.patchedVals) > 0 }

// patchTarget addresses one stamp value array (G or C) together with
// its snapshot map, keyed by the CSR slot the write uses, so Reset
// restores through the identical addressing.
type patchTarget struct {
	vals []complex128
	snap map[int]complex128
}

// targetG addresses the frequency-independent stamp values.
func (s *System) targetG() patchTarget { return patchTarget{vals: s.gval, snap: s.snapG} }

// targetC addresses the jω-proportional stamp values.
func (s *System) targetC() patchTarget { return patchTarget{vals: s.cval, snap: s.snapC} }

// patchEntry adds delta to one stamp entry, lowered to its CSR slot
// through the pattern's component→nonzero-slot index, snapshotting the
// pre-patch value the first time the slot is touched.
func (s *System) patchEntry(t patchTarget, i, j int, delta complex128) {
	slot := s.pat.SlotOf(i, j)
	if slot < 0 {
		// Unreachable: patches address subsets of the stamped entries,
		// and the pattern was collected from the same stamp walk.
		panic(fmt.Sprintf("mna: patch outside pattern at (%d,%d)", i, j))
	}
	if _, seen := t.snap[slot]; !seen {
		t.snap[slot] = t.vals[slot]
	}
	t.vals[slot] += delta
}

// patchConductance applies the two-terminal admittance stamp pattern as a
// delta patch between nodes a and b.
func (s *System) patchConductance(t patchTarget, a, b int, y complex128) {
	if a >= 0 {
		s.patchEntry(t, a, a, y)
	}
	if b >= 0 {
		s.patchEntry(t, b, b, y)
	}
	if a >= 0 && b >= 0 {
		s.patchEntry(t, a, b, -y)
		s.patchEntry(t, b, a, -y)
	}
}
