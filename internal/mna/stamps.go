package mna

import (
	"errors"
	"fmt"
	"slices"

	"analogdft/internal/circuit"
	"analogdft/internal/numeric"
)

// adder is the write surface of one stamp walk: *numeric.CSRValues
// (value arrays under the shared pattern — passed by pointer so the
// interface conversion never boxes), *coordCollector (the symbolic pass
// that discovers the pattern), or the *numeric.Matrix the tests' dense
// reference stamps into.
type adder interface {
	Add(i, j int, v complex128)
}

// coordCollector records which entries a stamp walk touches, ignoring
// the values — the symbolic phase of the build. Running the same walk
// that later writes the values guarantees the pattern covers every slot
// assembly and patching will ever address.
type coordCollector struct {
	coords []int64
}

func (c *coordCollector) Add(i, j int, _ complex128) {
	c.coords = append(c.coords, numeric.PackCoord(i, j))
}

// buildStamps performs the two component walks of one System. A symbolic
// pass first collects the touched coordinates — including the per-point
// opamp constraint rows, which must own slots in the pattern even though
// their cached values stay zero, and both modes' rows of every
// switchable opamp (Switchable) — into one CSR pattern. The numeric pass
// then stamps every frequency-independent entry into the G values (and
// the excitation into rhs0) and every entry proportional to jω into the
// C values — capacitors as +C farads, inductor branch equations as −L
// henries — while single-pole opamps, whose constraint row is a
// nonlinear function of ω, are collected on the dynamic list for
// per-point stamping. All structural validation (zero resistors,
// dangling control branches, unsupported models) happens here, once,
// instead of on every frequency point.
func (s *System) buildStamps() error {
	// Symbolic pass: coordinates only, no RHS buffer — the excitation
	// vector is carved out of the value slab below once the pattern (and
	// so the slab size) is known.
	col := &coordCollector{coords: make([]int64, 0, 16*s.n)}
	dynamic, err := s.stampAll(col, col, nil)
	if err != nil {
		return err
	}
	for _, op := range dynamic {
		// The value of jw is irrelevant — the collector only records
		// coordinates — but the walk must be the per-point one so the
		// dynamic rows' slots enter the pattern.
		s.stampOpampRow(col, op, 1i)
	}
	for _, op := range s.switchable {
		// Both constraint rows of a switchable opamp own slots, so
		// SetOpampMode switches it within the pattern. The row not in
		// force holds explicit zeros, which the sparse LU skips as the
		// dense LU skips every zero (DESIGN §15): the bits do not move.
		br := s.branchOf[op.Name()]
		s.opampRow(op, circuit.ModeNormal, 1i).addTo(col, br)
		s.opampRow(op, circuit.ModeFollower, 1i).addTo(col, br)
	}
	if err := s.patStore.InitFromCoords(s.n, col.coords); err != nil {
		return err
	}
	pat := &s.patStore

	// One slab for both value arrays and the excitation, and the stamp
	// adapters live in the System: the numeric pass pays one allocation.
	nnz := pat.NNZ()
	slab := make([]complex128, 2*nnz+s.n)
	gval := slab[:nnz:nnz]
	cval := slab[nnz : 2*nnz : 2*nnz]
	rhs0 := slab[2*nnz:]
	s.gBox = numeric.CSRValues{P: pat, Vals: gval}
	s.cBox = numeric.CSRValues{P: pat, Vals: cval}
	if dynamic, err = s.stampAll(&s.gBox, &s.cBox, rhs0); err != nil {
		return err
	}
	s.pat, s.gval, s.cval = pat, gval, cval
	s.rhs0, s.dynamic = rhs0, dynamic
	s.stampsBuilt = true
	return nil
}

// stampAll is the one component walk, shared by both build passes: g
// receives the frequency-independent stamps, cm the jω-proportional
// ones, rhs0 the excitation. A nil rhs0 skips the excitation writes — the
// symbolic collector pass only needs coordinates and runs before the RHS
// buffer exists. Each component writes its structural entries (the ±1
// branch incidences, opamp rows, excitation) first and then its value
// stamp. It returns the single-pole opamps needing per-point rows.
func (s *System) stampAll(g, cm adder, rhs0 []complex128) ([]*circuit.Opamp, error) {
	var dynamic []*circuit.Opamp
	for _, comp := range s.ckt.Components() {
		switch c := comp.(type) {
		case *circuit.Resistor:
			if c.Ohms == 0 {
				return nil, fmt.Errorf("%w: resistor %q has zero resistance", ErrUnsupported, c.Name())
			}

		case *circuit.Capacitor, *circuit.VCCS, *circuit.CCCS:
			// Value stamp only.

		case *circuit.Inductor:
			stampBranch(g, s.node(c.A), s.node(c.B), s.branchOf[c.Name()])

		case *circuit.VSource:
			br := s.branchOf[c.Name()]
			stampBranch(g, s.node(c.Plus), s.node(c.Minus), br)
			if rhs0 != nil {
				rhs0[br] = complex(c.Amplitude, 0)
			}

		case *circuit.ISource:
			p, q := s.node(c.Plus), s.node(c.Minus)
			j := complex(c.Amplitude, 0)
			if rhs0 != nil {
				if p >= 0 {
					rhs0[p] -= j
				}
				if q >= 0 {
					rhs0[q] += j
				}
			}

		case *circuit.VCVS:
			stampBranch(g, s.node(c.OutP), s.node(c.OutM), s.branchOf[c.Name()])

		case *circuit.CCVS:
			stampBranch(g, s.node(c.OutP), s.node(c.OutM), s.branchOf[c.Name()])

		case *circuit.Opamp:
			if err := s.buildOpampStamp(g, c); err != nil {
				return nil, err
			}
			if c.Model == circuit.ModelSinglePole {
				dynamic = append(dynamic, c)
			}

		default:
			return nil, fmt.Errorf("%w: %T", ErrUnsupported, comp)
		}

		var d RankOne
		scale, x, err := s.valueStamp(comp, &d)
		switch {
		case err == errNoValueStamp:
			// Sources and opamps: structural entries only.
		case err != nil:
			return nil, err
		case d.onC:
			d.addTo(cm, scale.of(x))
		default:
			d.addTo(g, scale.of(x))
		}
	}
	return dynamic, nil
}

// stampBranch writes the ±1 incidences of branch current br between
// nodes p and q (either may be −1 for ground): KCL carries the current
// out of p and into q, and the branch row reads V(p) − V(q).
func stampBranch(g adder, p, q, br int) {
	if p >= 0 {
		g.Add(p, br, 1)
		g.Add(br, p, 1)
	}
	if q >= 0 {
		g.Add(q, br, -1)
		g.Add(br, q, -1)
	}
}

// errNoValueStamp is valueStamp's answer for a component without a value
// stamp (an independent source or an opamp). It is a sentinel rather
// than a formatted error so the build's walk over those components
// allocates nothing; rankOne and SetValue word it for their callers.
var errNoValueStamp = errors.New("mna: no value stamp")

// valueScale is how a component's primary value x becomes the
// coefficient of its value stamp.
type valueScale uint8

const (
	scaleX    valueScale = iota // x: C, VCVS, VCCS, CCCS
	scaleInv                    // 1/x: a resistor's conductance
	scaleNegX                   // −x: the L and CCVS branch equations
)

// of returns the stamp coefficient of value x.
func (k valueScale) of(x float64) float64 {
	switch k {
	case scaleInv:
		return 1 / x
	case scaleNegX:
		return -x
	}
	return x
}

// valueStamp is the one statement of the matrix entries a component's
// value decides: comp adds scale(x)·u·vᵀ to G, or to C (scaled by jω at
// assembly) when it sets d.onC, where x is its nominal primary value.
// It fills d's u, v and flags and returns the scale and x. The build
// (stampAll), the in-place patch (SetValue) and the rank-1 lowering
// (rankOne) all read it, so the three cannot disagree. Every u and v
// entry is ±1, so each stamped product is exactly ±coefficient.
func (s *System) valueStamp(comp circuit.Component, d *RankOne) (valueScale, float64, error) {
	switch c := comp.(type) {
	case *circuit.Resistor:
		d.u.incidence(s.node(c.A), s.node(c.B))
		d.v, d.admittance = d.u, true
		return scaleInv, c.Ohms, nil

	case *circuit.Capacitor:
		d.u.incidence(s.node(c.A), s.node(c.B))
		d.v, d.admittance, d.onC = d.u, true, true
		return scaleX, c.Farads, nil

	case *circuit.Inductor:
		// Branch equation: V(a) − V(b) − jωL·I = 0.
		d.u.add(s.branchOf[c.Name()], 1)
		d.v, d.onC = d.u, true
		return scaleNegX, c.Henries, nil

	case *circuit.VCVS:
		// Branch equation: V(op) − V(om) − gain·(V(cp) − V(cq)) = 0.
		d.u.add(s.branchOf[c.Name()], 1)
		if cp := s.node(c.CtrlP); cp >= 0 {
			d.v.add(cp, -1)
		}
		if cq := s.node(c.CtrlM); cq >= 0 {
			d.v.add(cq, 1)
		}
		return scaleX, c.Gain, nil

	case *circuit.VCCS:
		d.u.incidence(s.node(c.OutP), s.node(c.OutM))
		d.v.incidence(s.node(c.CtrlP), s.node(c.CtrlM))
		return scaleX, c.Gm, nil

	case *circuit.CCVS:
		// Branch equation: V(op) − V(om) − Rt·I(ctrl) = 0.
		ctrlBr, ok := s.branchOf[c.CtrlVSource]
		if !ok {
			return 0, 0, fmt.Errorf("%w: CCVS %q controls through %q, which has no branch current", ErrUnsupported, c.Name(), c.CtrlVSource)
		}
		d.u.add(s.branchOf[c.Name()], 1)
		d.v.add(ctrlBr, 1)
		return scaleNegX, c.Rt, nil

	case *circuit.CCCS:
		// I(op→om) = gain·I(ctrl): injections proportional to the
		// control branch current.
		ctrlBr, ok := s.branchOf[c.CtrlVSource]
		if !ok {
			return 0, 0, fmt.Errorf("%w: CCCS %q controls through %q, which has no branch current", ErrUnsupported, c.Name(), c.CtrlVSource)
		}
		d.u.incidence(s.node(c.OutP), s.node(c.OutM))
		d.v.add(ctrlBr, 1)
		return scaleX, c.Gain, nil
	}
	return 0, 0, errNoValueStamp
}

// addTo adds coef·u·vᵀ through m. An admittance stamp (v = u) adds its
// diagonal entries before its cross terms; every other stamp goes row
// by row. Where a component's entries share a slot — a self-loop R or C,
// a shorted controlled source — those orders fix the bits of the sum.
func (d *RankOne) addTo(m adder, coef float64) {
	u, v := &d.u, &d.v
	add := func(i, j int) {
		m.Add(u.idx[i], v.idx[j], complex(coef*real(u.val[i])*real(v.val[j]), 0))
	}
	if d.admittance {
		for off := 0; off < u.n; off++ {
			for i := 0; i < u.n; i++ {
				add(i, (i+off)%u.n)
			}
		}
		return
	}
	for i := 0; i < u.n; i++ {
		for j := 0; j < v.n; j++ {
			add(i, j)
		}
	}
}

// buildOpampStamp validates an opamp and writes its frequency-independent
// part: the output branch-current injection always, and the constraint
// row for ideal models. Single-pole constraint rows stay empty here —
// stampOpampRow fills them per frequency point, and nothing else ever
// writes into an opamp's own branch row.
func (s *System) buildOpampStamp(g adder, c *circuit.Opamp) error {
	mode := s.modeOf(c)
	if err := checkMode(c, mode); err != nil {
		return err
	}
	br := s.branchOf[c.Name()]
	if out := s.node(c.Out); out >= 0 {
		g.Add(out, br, 1)
	}
	switch c.Model {
	case circuit.ModelIdeal:
		s.opampRow(c, mode, 0).addTo(g, br)
	case circuit.ModelSinglePole:
		// Dynamic: stamped per point.
	default:
		return fmt.Errorf("%w: opamp %q model %v", ErrUnsupported, c.Name(), c.Model)
	}
	return nil
}

// checkMode rejects a mode the stamps cannot state for c: follower mode
// needs a configurable opamp with a test input.
func checkMode(c *circuit.Opamp, mode circuit.OpampMode) error {
	switch mode {
	case circuit.ModeNormal:
	case circuit.ModeFollower:
		if !c.Configurable || c.TestIn == "" {
			return fmt.Errorf("%w: opamp %q in follower mode without test input", ErrUnsupported, c.Name())
		}
	default:
		return fmt.Errorf("%w: opamp %q mode %v", ErrUnsupported, c.Name(), mode)
	}
	return nil
}

// modeOf returns the mode the system holds opamp c in: its circuit's,
// unless SetOpampMode switched it.
func (s *System) modeOf(c *circuit.Opamp) circuit.OpampMode {
	if i := slices.Index(s.switchable, c); i >= 0 {
		return s.modes[i]
	}
	return c.Mode
}

// stampOpampRow writes the frequency-dependent constraint row of a
// single-pole opamp, in the mode the system holds it, into the assembled
// matrix. The row arrives all-zero from the fused scale-add — the split
// stamps never touch it, and its slots are part of the pattern with zero
// cached values — so plain adds reproduce exactly what the one-shot
// stamping used to write. Modes and models were validated by buildStamps
// and SetOpampMode.
func (s *System) stampOpampRow(m adder, c *circuit.Opamp, jw complex128) {
	s.opampRow(c, s.modeOf(c), jw).addTo(m, s.branchOf[c.Name()])
}

// opRow is one opamp constraint row: at most three entries, in the
// order they are added.
type opRow struct {
	col [3]int
	val [3]complex128
	n   int
}

// add appends entry (j, v) unless j is ground.
func (r *opRow) add(j int, v complex128) {
	if j >= 0 {
		r.col[r.n], r.val[r.n] = j, v
		r.n++
	}
}

// addTo adds the row's entries into row br of m, in order.
func (r opRow) addTo(m adder, br int) {
	for i := range r.n {
		m.Add(br, r.col[i], r.val[i])
	}
}

// opampRow is the one statement of an opamp's constraint row — the
// entries of its branch row — in the given mode, at jw for the
// single-pole model (the ideal rows do not depend on it). The build, the
// per-point stamp and the follower delta (FollowerDeltaInto) all read
// it. The follower row reads the test input, so mode may be
// ModeFollower only for a configurable opamp with one.
func (s *System) opampRow(c *circuit.Opamp, mode circuit.OpampMode, jw complex128) opRow {
	var r opRow
	if c.Model == circuit.ModelIdeal {
		if mode == circuit.ModeFollower {
			// V(out) − V(test) = 0.
			r.add(s.node(c.Out), 1)
			r.add(s.node(c.TestIn), -1)
		} else {
			// Nullor: V(+) − V(−) = 0.
			r.add(s.node(c.InP), 1)
			r.add(s.node(c.InN), -1)
		}
		return r
	}
	a := openLoopGain(c, jw)
	r.add(s.node(c.Out), 1)
	if mode == circuit.ModeFollower {
		// Unity-feedback buffer: V(out) = A/(1+A) · V(test).
		r.add(s.node(c.TestIn), -(a / (1 + a)))
	} else {
		// V(out) − A(jω)·(V(+) − V(−)) = 0.
		r.add(s.node(c.InP), -a)
		r.add(s.node(c.InN), a)
	}
	return r
}
