package mna

import (
	"errors"
	"fmt"
	"math"

	"analogdft/internal/circuit"
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
// inductor branch equations); at most one of the two is nonzero for every
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
	// onC names the array the stamp lives in — C rather than G — even
	// when the delta is zero.
	onC bool
	// admittance marks the two-terminal admittance stamp v = u of R and
	// C, which addTo writes diagonal first.
	admittance bool
}

// ScaleAt returns the frequency-dependent scalar s(ω) = GCoef + jω·CCoef,
// so that ΔM = s·u·vᵀ at the given frequency.
func (d *RankOne) ScaleAt(freqHz float64) complex128 {
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

// RankOneDeltaInto expresses "component name patched to value v" as a
// rank-1 update of the assembled matrix, written into d, whose slices
// then alias d's own storage: lowering into a reused slot allocates
// nothing. Unlike SetValue nothing is stamped, so the cached G/C split
// and any live LU factorization of the nominal matrix stay valid. The
// delta is computed against the component's current effective value —
// the patched value if SetValue is live on it, the nominal otherwise —
// mirroring SetValue's composition rule.
//
// Supported are the components with a value stamp (valueStamp): R, C,
// L and the four controlled sources. Opamps (per-point constraint rows)
// and independent sources (excitation patches) return ErrNotLowRank; a
// resistor patched from or to exactly zero returns ErrUnsupported,
// exactly as SetValue would. On error d is left zero.
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
	comp, err := s.component(name)
	if err != nil {
		return err
	}
	if _, err := s.valueDelta(comp, v, d); err != errNoValueStamp {
		return err
	}
	switch comp.(type) {
	case *circuit.VSource, *circuit.ISource:
		return fmt.Errorf("%w: %T %q patches the excitation vector, not the matrix", ErrNotLowRank, comp, name)
	}
	return fmt.Errorf("%w: cannot express %T %q as u·vᵀ", ErrNotLowRank, comp, name)
}

// valueDelta fills d with the change of comp's value stamp when its
// value moves from the current effective one — the live patch if
// SetValue holds one, the nominal otherwise — to v, and returns the
// coefficient scale(v) − scale(old), also set as d's GCoef or CCoef.
func (s *System) valueDelta(comp circuit.Component, v float64, d *RankOne) (float64, error) {
	scale, old, err := s.valueStamp(comp, d)
	if err != nil {
		return 0, err
	}
	if p, ok := s.patchedVals[comp.Name()]; ok {
		old = p
	}
	if scale == scaleInv && (old == 0 || v == 0) {
		return 0, fmt.Errorf("%w: resistor %q patched to zero resistance", ErrUnsupported, comp.Name())
	}
	coef := scale.of(v) - scale.of(old)
	if d.onC {
		d.CCoef = complex(coef, 0)
	} else {
		d.GCoef = complex(coef, 0)
	}
	return coef, nil
}

// component builds the stamps if need be and looks name up.
func (s *System) component(name string) (circuit.Component, error) {
	if err := s.prepareStamps(); err != nil {
		return nil, err
	}
	comp, ok := s.ckt.Component(name)
	if !ok {
		return nil, fmt.Errorf("mna: unknown component %q", name)
	}
	return comp, nil
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

// RowDelta is the change of one configurable opamp's constraint row when
// it switches from normal to follower mode: the configured matrix is the
// normal one plus e_Row·wᵀ, with w's entries in Idx/Val. An index the
// two rows share appears once, with the sum of its changes (zero where
// they cancel), so the index set depends on the wiring alone, not on the
// frequency.
type RowDelta struct {
	Row int
	Idx []int
	Val []complex128

	// idx and val back Idx and Val: the two rows hold at most five
	// entries between them.
	idx [5]int
	val [5]complex128
	n   int
}

// merge adds v at index i, appending i when it is new.
func (d *RowDelta) merge(i int, v complex128) {
	for t := range d.n {
		if d.idx[t] == i {
			d.val[t] += v
			return
		}
	}
	d.idx[d.n], d.val[d.n] = i, v
	d.n++
}

// FollowerDeltaInto writes into d the delta w of opamp name's constraint
// row at freqHz: its follower row minus its normal row (opampRow), in
// whatever mode the system holds it. The opamp must be configurable with
// a test input. Lowering into a reused d allocates nothing.
func (s *System) FollowerDeltaInto(name string, freqHz float64, d *RowDelta) error {
	comp, err := s.component(name)
	if err != nil {
		return err
	}
	op, ok := comp.(*circuit.Opamp)
	if !ok || !op.Configurable || op.TestIn == "" {
		return fmt.Errorf("%w: %q is not a configurable opamp with a test input", ErrUnsupported, name)
	}
	if err := validFreq(freqHz); err != nil {
		return err
	}
	jw := complex(0, 2*math.Pi*freqHz)
	*d = RowDelta{Row: s.branchOf[name]}
	fr, nr := s.opampRow(op, circuit.ModeFollower, jw), s.opampRow(op, circuit.ModeNormal, jw)
	for t := range fr.n {
		d.merge(fr.col[t], fr.val[t])
	}
	for t := range nr.n {
		d.merge(nr.col[t], -nr.val[t])
	}
	d.Idx, d.Val = d.idx[:d.n], d.val[:d.n]
	return nil
}
