package mna

import (
	"errors"
	"fmt"
	"math"

	"analogdft/internal/circuit"
	"analogdft/internal/numeric"
)

// ErrNotLowRank flags a value patch that cannot be expressed as a rank-1
// update of the assembled MNA matrix: opamp model changes re-stamp a
// frequency-dependent constraint row, and source amplitude patches move
// the excitation vector rather than the matrix. Callers fall back to the
// in-place stamp patch (SetValue) or the clone path.
var ErrNotLowRank = errors.New("mna: patch is not a rank-1 stamp update")

// RankOne is the rank-1 perturbation of the assembled MNA matrix produced
// by patching one component's value: for every frequency,
//
//	ΔM(ω) = (GCoef + jω·CCoef) · u·vᵀ
//
// with u and v sparse (a handful of node/branch entries). GCoef carries
// the frequency-independent part of the delta (conductances, controlled
// source gains), CCoef the part proportional to jω (capacitances,
// inductor branch equations); exactly one of the two is nonzero for every
// supported component. The factors address the same unknown ordering as
// System.N()/NodeNames.
type RankOne struct {
	// UIdx/UVal are the nonzero entries of the column factor u.
	UIdx []int
	UVal []complex128
	// VIdx/VVal are the nonzero entries of the row factor v.
	VIdx []int
	VVal []complex128
	// GCoef scales u·vᵀ frequency-independently; CCoef scales it by jω.
	GCoef complex128
	CCoef complex128

	// u and v back the four slices above: every supported component's
	// factors hold at most two entries each, so a RankOne that lives in
	// a reused slot is lowered without allocating.
	u, v incidenceVec
}

// ScaleAt returns the frequency-dependent scalar s(ω) = GCoef + jω·CCoef,
// so that ΔM = s·u·vᵀ at the given frequency.
func (d RankOne) ScaleAt(freqHz float64) complex128 {
	return d.GCoef + complex(0, 2*math.Pi*freqHz)*d.CCoef
}

// incidenceVec is the fixed storage of one sparse factor.
type incidenceVec struct {
	idx [2]int
	val [2]complex128
	n   int
}

// add appends one entry.
func (f *incidenceVec) add(i int, v complex128) {
	f.idx[f.n], f.val[f.n] = i, v
	f.n++
}

// incidence sets f to the ±1 incidence vector of a two-terminal element
// between matrix rows a and b (either may be −1 for ground).
func (f *incidenceVec) incidence(a, b int) {
	if a >= 0 {
		f.add(a, 1)
	}
	if b >= 0 {
		f.add(b, -1)
	}
}

// RankOneDelta expresses "component name patched to value v" as a rank-1
// update of the assembled matrix, without touching the system: unlike
// SetValue nothing is stamped, so the cached G/C split and any live LU
// factorization of the nominal matrix stay valid. The delta is computed
// against the component's current effective value — the patched value if
// SetValue is live on it, the nominal otherwise — mirroring SetValue's
// composition rule.
//
// Supported are the components whose patch touches matrix entries in a
// single outer-product pattern: R, C, L and the four controlled sources.
// Opamps (per-point constraint rows) and independent sources (excitation
// patches) return ErrNotLowRank; a resistor patched from or to exactly
// zero returns ErrUnsupported, exactly as SetValue would.
func (s *System) RankOneDelta(name string, v float64) (RankOne, error) {
	var d RankOne
	err := s.RankOneDeltaInto(name, v, &d)
	return d, err
}

// RankOneDeltaInto is RankOneDelta writing into d, whose slices then
// alias d's own storage: lowering into a reused slot allocates nothing.
// On error d is left zero.
func (s *System) RankOneDeltaInto(name string, v float64, d *RankOne) error {
	*d = RankOne{}
	if err := s.rankOne(name, v, d); err != nil {
		*d = RankOne{}
		return err
	}
	d.UIdx, d.UVal = d.u.idx[:d.u.n], d.u.val[:d.u.n]
	d.VIdx, d.VVal = d.v.idx[:d.v.n], d.v.val[:d.v.n]
	return nil
}

// rankOne fills d's coefficients and factor storage.
func (s *System) rankOne(name string, v float64, d *RankOne) error {
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
	old, patched := s.patchedVals[name]

	switch c := comp.(type) {
	case *circuit.Resistor:
		if !patched {
			old = c.Ohms
		}
		if old == 0 || v == 0 {
			return fmt.Errorf("%w: resistor %q patched to zero resistance", ErrUnsupported, name)
		}
		d.u.incidence(s.node(c.A), s.node(c.B))
		d.v = d.u
		d.GCoef = complex(1/v-1/old, 0)

	case *circuit.Capacitor:
		if !patched {
			old = c.Farads
		}
		d.u.incidence(s.node(c.A), s.node(c.B))
		d.v = d.u
		d.CCoef = complex(v-old, 0)

	case *circuit.Inductor:
		if !patched {
			old = c.Henries
		}
		d.u.add(s.branchOf[name], 1)
		d.v = d.u
		d.CCoef = -complex(v-old, 0)

	case *circuit.VCVS:
		if !patched {
			old = c.Gain
		}
		d.u.add(s.branchOf[name], 1)
		d.v.incidence(s.node(c.CtrlM), s.node(c.CtrlP)) // −gain on CtrlP, +gain on CtrlM
		d.GCoef = complex(v-old, 0)

	case *circuit.VCCS:
		if !patched {
			old = c.Gm
		}
		d.u.incidence(s.node(c.OutP), s.node(c.OutM))
		d.v.incidence(s.node(c.CtrlP), s.node(c.CtrlM))
		d.GCoef = complex(v-old, 0)

	case *circuit.CCVS:
		if !patched {
			old = c.Rt
		}
		ctrlBr, okBr := s.branchOf[c.CtrlVSource]
		if !okBr {
			return fmt.Errorf("%w: CCVS %q controls through %q, which has no branch current", ErrUnsupported, name, c.CtrlVSource)
		}
		d.u.add(s.branchOf[name], 1)
		d.v.add(ctrlBr, 1)
		d.GCoef = complex(-(v - old), 0)

	case *circuit.CCCS:
		if !patched {
			old = c.Gain
		}
		ctrlBr, okBr := s.branchOf[c.CtrlVSource]
		if !okBr {
			return fmt.Errorf("%w: CCCS %q controls through %q, which has no branch current", ErrUnsupported, name, c.CtrlVSource)
		}
		d.u.incidence(s.node(c.OutP), s.node(c.OutM))
		d.v.add(ctrlBr, 1)
		d.GCoef = complex(v-old, 0)

	case *circuit.VSource, *circuit.ISource:
		return fmt.Errorf("%w: %T %q patches the excitation vector, not the matrix", ErrNotLowRank, comp, name)

	default:
		return fmt.Errorf("%w: cannot express %T %q as u·vᵀ", ErrNotLowRank, comp, name)
	}
	return nil
}

// AssembleValsInto assembles the MNA system at one frequency into
// caller-owned storage: the M = G + jω·C values land in mv (length
// Pattern().NNZ()) under the shared pattern, and rhs (length N())
// receives the excitation. This is the exported face of the per-point
// assembly the sweep loop uses, for callers that inspect or factor the
// assembled matrix themselves (the rank-1 consistency tests check
// RankOneDelta against the assembled patch this way).
func (s *System) AssembleValsInto(freqHz float64, mv, rhs []complex128) error {
	rebuilt, err := s.ensureStamps()
	if err != nil {
		return err
	}
	if len(mv) != s.pat.NNZ() || len(rhs) != s.n {
		return fmt.Errorf("%w: assemble into %d values/rhs %d, want %d/%d", numeric.ErrShape, len(mv), len(rhs), s.pat.NNZ(), s.n)
	}
	if _, err := s.assembleVals(freqHz, mv, rhs); err != nil {
		return err
	}
	accountStamps(rebuilt)
	return nil
}

// NodeIndex returns the unknown-vector index of a node, or −1 for ground.
func (s *System) NodeIndex(node string) (int, error) {
	if circuit.IsGroundName(node) {
		return -1, nil
	}
	i, ok := s.nodeIndex[circuit.CanonicalNode(node)]
	if !ok {
		return 0, fmt.Errorf("mna: unknown node %q", node)
	}
	return i, nil
}
