package mna

import (
	"fmt"

	"analogdft/internal/circuit"
	"analogdft/internal/numeric"
)

// SetValue patches the cached split stamps so the named component behaves
// as if its primary value were v — a resistance in ohms, capacitance in
// farads, inductance in henries, source amplitude, or controlled-source
// gain — without cloning the circuit or rebuilding the index maps. Only
// the handful of matrix entries the component stamps are touched; the
// circuit itself is never mutated. A matrix patch adds the change of the
// component's value stamp (valueStamp), the same u·vᵀ the build wrote
// and RankOneDeltaInto lowers.
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
	comp, err := s.component(name)
	if err != nil {
		return err
	}
	if s.patchedVals == nil {
		s.patchedVals = make(map[string]float64)
		s.patchG = patchTarget{pat: s.pat, vals: s.gval, snap: make(map[int]complex128)}
		s.patchC = patchTarget{pat: s.pat, vals: s.cval, snap: make(map[int]complex128)}
		s.snapRHS = make(map[int]complex128)
	}
	old, patched := s.patchedVals[name]

	switch c := comp.(type) {
	case *circuit.VSource:
		if !patched {
			old = c.Amplitude
		}
		s.patchRHS(s.branchOf[name], complex(v-old, 0))

	case *circuit.ISource:
		if !patched {
			old = c.Amplitude
		}
		d := complex(v-old, 0)
		if p := s.node(c.Plus); p >= 0 {
			s.patchRHS(p, -d)
		}
		if q := s.node(c.Minus); q >= 0 {
			s.patchRHS(q, d)
		}

	default:
		var d RankOne
		coef, err := s.valueDelta(comp, v, &d)
		if err == errNoValueStamp {
			return fmt.Errorf("%w: cannot patch %T %q", ErrUnsupported, comp, name)
		}
		if err != nil {
			return err
		}
		t := &s.patchG
		if d.onC {
			t = &s.patchC
		}
		d.addTo(t, coef)
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
	s.patchG.restore()
	s.patchC.restore()
	for idx, v := range s.snapRHS {
		s.rhs0[idx] = v
	}
	clear(s.snapRHS)
	clear(s.patchedVals)
}

// Patched reports whether any component value is currently patched.
func (s *System) Patched() bool { return len(s.patchedVals) > 0 }

// patchRHS adds delta to excitation entry idx, snapshotting its
// pre-patch value the first time it is touched.
func (s *System) patchRHS(idx int, delta complex128) {
	if _, seen := s.snapRHS[idx]; !seen {
		s.snapRHS[idx] = s.rhs0[idx]
	}
	s.rhs0[idx] += delta
}

// patchTarget is the adder a matrix patch writes through: one stamp
// value array (G or C) with its snapshot map, keyed by the CSR slot the
// write uses, so Reset restores through the identical addressing.
type patchTarget struct {
	pat  *numeric.Pattern
	vals []complex128
	snap map[int]complex128
}

// Add adds delta to one stamp entry, lowered to its CSR slot through the
// pattern's component→nonzero-slot index, snapshotting the pre-patch
// value the first time the slot is touched.
func (t *patchTarget) Add(i, j int, delta complex128) {
	slot := t.pat.SlotOf(i, j)
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

// restore writes every snapshot back and forgets them.
func (t *patchTarget) restore() {
	for slot, v := range t.snap {
		t.vals[slot] = v
	}
	clear(t.snap)
}
