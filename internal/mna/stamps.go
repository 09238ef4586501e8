package mna

import (
	"fmt"

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
// their cached values stay zero — into one CSR pattern. The numeric pass
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
// buffer exists. It returns the single-pole opamps needing per-point
// rows.
func (s *System) stampAll(g, cm adder, rhs0 []complex128) ([]*circuit.Opamp, error) {
	var dynamic []*circuit.Opamp
	for _, comp := range s.ckt.Components() {
		switch c := comp.(type) {
		case *circuit.Resistor:
			if c.Ohms == 0 {
				return nil, fmt.Errorf("%w: resistor %q has zero resistance", ErrUnsupported, c.Name())
			}
			stampConductance(g, s.node(c.A), s.node(c.B), complex(1/c.Ohms, 0))

		case *circuit.Capacitor:
			// Scaled by jω at assembly time.
			stampConductance(cm, s.node(c.A), s.node(c.B), complex(c.Farads, 0))

		case *circuit.Inductor:
			// Branch equation: V(a) − V(b) − jωL·I = 0; KCL: I out of a, into b.
			a, b, br := s.node(c.A), s.node(c.B), s.branchOf[c.Name()]
			if a >= 0 {
				g.Add(a, br, 1)
				g.Add(br, a, 1)
			}
			if b >= 0 {
				g.Add(b, br, -1)
				g.Add(br, b, -1)
			}
			cm.Add(br, br, -complex(c.Henries, 0))

		case *circuit.VSource:
			p, q, br := s.node(c.Plus), s.node(c.Minus), s.branchOf[c.Name()]
			if p >= 0 {
				g.Add(p, br, 1)
				g.Add(br, p, 1)
			}
			if q >= 0 {
				g.Add(q, br, -1)
				g.Add(br, q, -1)
			}
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
			op, om := s.node(c.OutP), s.node(c.OutM)
			cp, cq := s.node(c.CtrlP), s.node(c.CtrlM)
			br := s.branchOf[c.Name()]
			if op >= 0 {
				g.Add(op, br, 1)
				g.Add(br, op, 1)
			}
			if om >= 0 {
				g.Add(om, br, -1)
				g.Add(br, om, -1)
			}
			gain := complex(c.Gain, 0)
			if cp >= 0 {
				g.Add(br, cp, -gain)
			}
			if cq >= 0 {
				g.Add(br, cq, gain)
			}

		case *circuit.VCCS:
			op, om := s.node(c.OutP), s.node(c.OutM)
			cp, cq := s.node(c.CtrlP), s.node(c.CtrlM)
			gm := complex(c.Gm, 0)
			for _, t := range []struct {
				row int
				sgn complex128
			}{{op, 1}, {om, -1}} {
				if t.row < 0 {
					continue
				}
				if cp >= 0 {
					g.Add(t.row, cp, t.sgn*gm)
				}
				if cq >= 0 {
					g.Add(t.row, cq, -t.sgn*gm)
				}
			}

		case *circuit.CCVS:
			// V(op) − V(om) − Rt·I(ctrl) = 0 with its own branch current.
			ctrlBr, ok := s.branchOf[c.CtrlVSource]
			if !ok {
				return nil, fmt.Errorf("%w: CCVS %q controls through %q, which has no branch current", ErrUnsupported, c.Name(), c.CtrlVSource)
			}
			op, om := s.node(c.OutP), s.node(c.OutM)
			br := s.branchOf[c.Name()]
			if op >= 0 {
				g.Add(op, br, 1)
				g.Add(br, op, 1)
			}
			if om >= 0 {
				g.Add(om, br, -1)
				g.Add(br, om, -1)
			}
			g.Add(br, ctrlBr, complex(-c.Rt, 0))

		case *circuit.CCCS:
			// I(op→om) = Gain·I(ctrl): current injections proportional to
			// the control branch current.
			ctrlBr, ok := s.branchOf[c.CtrlVSource]
			if !ok {
				return nil, fmt.Errorf("%w: CCCS %q controls through %q, which has no branch current", ErrUnsupported, c.Name(), c.CtrlVSource)
			}
			op, om := s.node(c.OutP), s.node(c.OutM)
			gain := complex(c.Gain, 0)
			if op >= 0 {
				g.Add(op, ctrlBr, gain)
			}
			if om >= 0 {
				g.Add(om, ctrlBr, -gain)
			}

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
	}
	return dynamic, nil
}

// stampConductance adds admittance y between nodes a and b.
func stampConductance(m adder, a, b int, y complex128) {
	if a >= 0 {
		m.Add(a, a, y)
	}
	if b >= 0 {
		m.Add(b, b, y)
	}
	if a >= 0 && b >= 0 {
		m.Add(a, b, -y)
		m.Add(b, a, -y)
	}
}

// buildOpampStamp validates an opamp and writes its frequency-independent
// part: the output branch-current injection always, and the full
// constraint row for ideal models. Single-pole constraint rows stay empty
// here — stampOpampRow fills them per frequency point, and nothing else
// ever writes into an opamp's own branch row.
func (s *System) buildOpampStamp(g adder, c *circuit.Opamp) error {
	out := s.node(c.Out)
	br := s.branchOf[c.Name()]
	if out >= 0 {
		g.Add(out, br, 1)
	}

	switch c.Mode {
	case circuit.ModeNormal:
		switch c.Model {
		case circuit.ModelIdeal:
			// Nullor: V(+) − V(−) = 0.
			if p := s.node(c.InP); p >= 0 {
				g.Add(br, p, 1)
			}
			if q := s.node(c.InN); q >= 0 {
				g.Add(br, q, -1)
			}
		case circuit.ModelSinglePole:
			// Dynamic: stamped per point.
		default:
			return fmt.Errorf("%w: opamp %q model %v", ErrUnsupported, c.Name(), c.Model)
		}

	case circuit.ModeFollower:
		if !c.Configurable || c.TestIn == "" {
			return fmt.Errorf("%w: opamp %q in follower mode without test input", ErrUnsupported, c.Name())
		}
		switch c.Model {
		case circuit.ModelIdeal:
			// V(out) − V(test) = 0.
			if out >= 0 {
				g.Add(br, out, 1)
			}
			if tin := s.node(c.TestIn); tin >= 0 {
				g.Add(br, tin, -1)
			}
		case circuit.ModelSinglePole:
			// Dynamic: stamped per point.
		default:
			return fmt.Errorf("%w: opamp %q model %v", ErrUnsupported, c.Name(), c.Model)
		}

	default:
		return fmt.Errorf("%w: opamp %q mode %v", ErrUnsupported, c.Name(), c.Mode)
	}
	return nil
}

// stampOpampRow writes the frequency-dependent constraint row of a
// single-pole opamp into the assembled matrix. The row arrives all-zero
// from the fused scale-add — the split stamps never touch it, and its
// slots are part of the pattern with zero cached values — so plain adds
// reproduce exactly what the one-shot stamping used to write. Modes and models were
// validated by buildStamps.
func (s *System) stampOpampRow(m adder, c *circuit.Opamp, jw complex128) {
	out := s.node(c.Out)
	br := s.branchOf[c.Name()]

	switch c.Mode {
	case circuit.ModeNormal:
		// V(out) − A(jω)·(V(+) − V(−)) = 0.
		a := openLoopGain(c, jw)
		if out >= 0 {
			m.Add(br, out, 1)
		}
		if p := s.node(c.InP); p >= 0 {
			m.Add(br, p, -a)
		}
		if q := s.node(c.InN); q >= 0 {
			m.Add(br, q, a)
		}

	case circuit.ModeFollower:
		// Unity-feedback buffer: V(out) = A/(1+A) · V(test).
		a := openLoopGain(c, jw)
		buf := a / (1 + a)
		if out >= 0 {
			m.Add(br, out, 1)
		}
		if tin := s.node(c.TestIn); tin >= 0 {
			m.Add(br, tin, -buf)
		}
	}
}
