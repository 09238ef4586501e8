package mna

import (
	"fmt"
	"slices"

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
// Components whose behavior is not a single stamped value — opamps,
// whose model SetOpampModel patches, and a resistor patched to exactly
// zero (infinite conductance) — return an error wrapping ErrUnsupported.
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

// SetOpampModel patches the open-loop model of single-pole opamp name
// to DC gain a0 and pole poleHz, as if its circuit held those values,
// without cloning or mutating the circuit: the opamp's constraint row is
// stamped per point, in whatever mode the system holds it, from the
// patched model. Nothing cached is written, so the patch composes with
// SetValue, and Reset forgets it. Any other component returns an error
// wrapping ErrUnsupported.
func (s *System) SetOpampModel(name string, a0, poleHz float64) error {
	comp, err := s.component(name)
	if err != nil {
		return err
	}
	op, ok := comp.(*circuit.Opamp)
	if !ok || op.Model != circuit.ModelSinglePole {
		return fmt.Errorf("%w: %q is not a single-pole opamp", ErrUnsupported, name)
	}
	for i := range s.opPatches {
		if s.opPatches[i].op == op {
			s.opPatches[i].a0, s.opPatches[i].poleHz = a0, poleHz
			return nil
		}
	}
	s.opPatches = append(s.opPatches, opampPatch{op: op, a0: a0, poleHz: poleHz})
	return nil
}

// opampPatch is a live patch of one single-pole opamp's model.
type opampPatch struct {
	op         *circuit.Opamp
	a0, poleHz float64
}

// Reset restores every stamp entry touched by SetValue to its snapshotted
// nominal value — an exact bitwise restore, not an inverse delta — and
// forgets all patches, opamp models included. A System with no live
// patches is untouched.
func (s *System) Reset() {
	s.opPatches = s.opPatches[:0]
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

// Patched reports whether any component value or opamp model is
// currently patched.
func (s *System) Patched() bool { return len(s.patchedVals) > 0 || len(s.opPatches) > 0 }

// Switchable names the opamps SetOpampMode may switch, each a
// configurable opamp with a test input: the build then gives both of
// each one's constraint rows slots in the pattern. It must precede the
// first assembly, and a system that switches nothing needs no call.
func (s *System) Switchable(names []string) error {
	if s.stampsBuilt {
		return fmt.Errorf("%w: opamps named switchable after the stamps were built", ErrUnsupported)
	}
	ops := make([]*circuit.Opamp, len(names))
	modes := make([]circuit.OpampMode, len(names))
	for i, name := range names {
		comp, ok := s.ckt.Component(name)
		op, isOp := comp.(*circuit.Opamp)
		if !ok || !isOp || !op.Configurable || op.TestIn == "" {
			return fmt.Errorf("%w: %q is not a configurable opamp with a test input", ErrUnsupported, name)
		}
		ops[i], modes[i] = op, op.Mode
	}
	s.switchable, s.modes = ops, modes
	return nil
}

// SetOpampMode switches switchable opamp name to mode in place, as if
// its circuit held it there, without cloning or mutating the circuit:
// the multi-configuration technique's configurations are this one
// system with some chain opamps switched to follower mode. An ideal
// opamp's constraint row lives in G; its slots are cleared and the row
// of the new mode is added into them, the adds the build makes for that
// mode, so the stamps hold the configured circuit's bits. A single-pole
// opamp's row is stamped per point in the mode the system holds. Value
// patches are independent of the switch, and Reset leaves it in place.
func (s *System) SetOpampMode(name string, mode circuit.OpampMode) error {
	comp, err := s.component(name)
	if err != nil {
		return err
	}
	op, _ := comp.(*circuit.Opamp)
	i := slices.Index(s.switchable, op)
	if i < 0 {
		return fmt.Errorf("%w: %q is not a switchable opamp", ErrUnsupported, name)
	}
	if err := checkMode(op, mode); err != nil {
		return err
	}
	if s.modes[i] == mode {
		return nil
	}
	s.modes[i] = mode
	if op.Model == circuit.ModelIdeal {
		// Nothing but the opamp's own row writes its branch row.
		br := s.branchOf[name]
		clear(s.gval[s.pat.RowPtr[br]:s.pat.RowPtr[br+1]])
		s.opampRow(op, mode, 0).addTo(&s.gBox, br)
	}
	return nil
}

// SetName sets the circuit name the system's solve errors report
// (SolveError): a system switched to a configuration (SetOpampMode)
// names the configured circuit, not the one it was built from.
func (s *System) SetName(name string) { s.name = name }

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
