// Package mna implements small-signal AC analysis of linear analog
// circuits via Modified Nodal Analysis over the complex field.
//
// It is the HSPICE substitute for this reproduction: the paper only needs
// frequency responses of linear RC-opamp networks, which MNA computes
// exactly. The unknown vector stacks the non-ground node voltages with one
// branch current per voltage-defined element (independent voltage source,
// VCVS, inductor, opamp output). Each element contributes a "stamp" to the
// system matrix; the system is factored and solved per frequency point.
//
// Opamps use the nullor stamp in normal mode (constraint V+ − V− = 0 with a
// free output current) and, when configured as followers by the
// multi-configuration DFT technique, the constraint V(out) − V(test) = 0 —
// the output buffers the dedicated test input while the feedback network
// stays connected and keeps loading the surrounding nodes.
package mna

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"slices"

	"analogdft/internal/circuit"
	"analogdft/internal/numeric"
)

// ErrUnsupported is returned when the circuit contains a component the
// engine cannot stamp (e.g. a configurable opamp in follower mode without a
// test input).
var ErrUnsupported = errors.New("mna: unsupported component")

// ErrSingular wraps numeric.ErrSingular with circuit context; use
// errors.Is(err, numeric.ErrSingular) to detect it.
var ErrSingular = numeric.ErrSingular

// SolveError is a failed AC solve with its full context: which circuit, at
// which frequency, and the underlying cause. It wraps the cause, so
// errors.Is(err, numeric.ErrSingular) keeps working; errors.As recovers
// the frequency of a singular point for reporting or retry.
type SolveError struct {
	Circuit string
	FreqHz  float64
	Err     error
}

// Error implements the error interface.
func (e *SolveError) Error() string {
	return fmt.Sprintf("mna: circuit %q at %g Hz: %v", e.Circuit, e.FreqHz, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *SolveError) Unwrap() error { return e.Err }

// System is a circuit prepared for AC analysis: node numbering and branch
// allocation are fixed, and the component stamps are split once into a
// frequency-independent part G and a capacitive part C, stored as two
// value arrays under one shared CSR pattern, so a frequency point
// assembles as the fused scale-add M = G + jω·C over the nonzeros with no
// component walk. Single-pole opamps are the one exception — their
// constraint row is a nonlinear function of ω — and are re-stamped per
// point into slots the pattern reserves for them.
type System struct {
	ckt *circuit.Circuit
	// name is the circuit name solve errors report: ckt's, or the
	// configured circuit's once a switched system is named (SetName).
	name string

	nodeIndex map[string]int // non-ground node name -> 0-based index
	nodeNames []string       // inverse of nodeIndex
	branchOf  map[string]int // component name -> branch row (offset by nNodes)
	n         int            // total unknowns

	// Split stamps, built lazily by the first assembly (buildStamps).
	stampsBuilt bool
	pat         *numeric.Pattern // shared symbolic structure of G, C and M
	gval        []complex128     // frequency-independent stamps under pat
	cval        []complex128     // stamps proportional to jω (C in farads, −L in henries)
	rhs0        []complex128     // frequency-independent excitation
	dynamic     []*circuit.Opamp // single-pole opamps, stamped per point

	// Build storage embedded in the (already heap-allocated) System so
	// the build allocates no separate structs: patStore backs pat, and
	// the CSRValues adapters are fields because passing a field pointer
	// as the adder interface never boxes. Each Sweeper has its own
	// per-point adapter, so Sweepers of one System may assemble it
	// concurrently once its stamps are built and while no patch is live
	// (ensureStamps and SetValue write it).
	patStore numeric.Pattern
	gBox     numeric.CSRValues
	cBox     numeric.CSRValues

	// Patch state (SetValue/Reset): first-seen snapshots of every stamp
	// slot and excitation entry a patch has touched, plus the current
	// patched value per component so repeated patches compose. patchG
	// and patchC are fields so passing them as adders never boxes.
	patchG, patchC patchTarget
	snapRHS        map[int]complex128
	patchedVals    map[string]float64
	// opPatches are the live model patches of single-pole opamps
	// (SetOpampModel), which the per-point constraint rows read in place
	// of the circuit's A0 and pole.
	opPatches []opampPatch

	// switchable lists the opamps SetOpampMode may switch (Switchable),
	// and modes[i] is the mode the system holds switchable[i] in, so a
	// shared circuit is never mutated.
	switchable []*circuit.Opamp
	modes      []circuit.OpampMode
}

// NewSystem validates and indexes a circuit for analysis. The circuit is
// retained by reference; callers must not mutate it while solving (clone
// first — fault injection does).
func NewSystem(ckt *circuit.Circuit) (*System, error) {
	s := &System{
		ckt:       ckt,
		name:      ckt.Name,
		nodeIndex: make(map[string]int),
		branchOf:  make(map[string]int),
	}
	for _, name := range ckt.Nodes() {
		s.nodeIndex[name] = len(s.nodeNames)
		s.nodeNames = append(s.nodeNames, name)
	}
	nBranches := 0
	for _, comp := range ckt.Components() {
		switch c := comp.(type) {
		case *circuit.VSource, *circuit.VCVS, *circuit.Inductor, *circuit.CCVS:
			s.branchOf[comp.Name()] = len(s.nodeNames) + nBranches
			nBranches++
		case *circuit.Opamp:
			if c.Mode == circuit.ModeFollower {
				if !c.Configurable || c.TestIn == "" {
					return nil, fmt.Errorf("%w: opamp %q in follower mode without test input", ErrUnsupported, c.Name())
				}
			}
			s.branchOf[comp.Name()] = len(s.nodeNames) + nBranches
			nBranches++
		}
	}
	s.n = len(s.nodeNames) + nBranches
	if s.n == 0 {
		return nil, fmt.Errorf("%w: empty system", circuit.ErrInvalid)
	}
	return s, nil
}

// Fork returns a system of the same circuit that shares s's index maps,
// CSR pattern and switchable opamps and owns copies of what solving,
// patching and switching write: the G and C values, the excitation and
// the opamp modes. A fork costs one value slab, not a component walk,
// and does not count as a stamp build. s must hold no live patch; forks
// of one system may be made concurrently once its stamps are built and
// while nothing writes it, and each is then used alone.
func (s *System) Fork() (*System, error) {
	if s.Patched() {
		return nil, fmt.Errorf("%w: fork of a patched system", ErrUnsupported)
	}
	if err := s.prepareStamps(); err != nil {
		return nil, err
	}
	nnz := len(s.gval)
	slab := make([]complex128, 2*nnz+s.n)
	f := &System{
		ckt:         s.ckt,
		name:        s.name,
		nodeIndex:   s.nodeIndex,
		nodeNames:   s.nodeNames,
		branchOf:    s.branchOf,
		n:           s.n,
		stampsBuilt: true,
		pat:         s.pat,
		gval:        slab[:nnz:nnz],
		cval:        slab[nnz : 2*nnz : 2*nnz],
		rhs0:        slab[2*nnz:],
		dynamic:     s.dynamic,
		switchable:  s.switchable,
		modes:       slices.Clone(s.modes),
	}
	copy(f.gval, s.gval)
	copy(f.cval, s.cval)
	copy(f.rhs0, s.rhs0)
	f.gBox = numeric.CSRValues{P: s.pat, Vals: f.gval}
	f.cBox = numeric.CSRValues{P: s.pat, Vals: f.cval}
	return f, nil
}

// N returns the number of unknowns.
func (s *System) N() int { return s.n }

// NodeNames returns the non-ground node names in index order.
func (s *System) NodeNames() []string { return s.nodeNames }

// node returns the matrix index of a node, or -1 for ground.
func (s *System) node(name string) int {
	if circuit.IsGroundName(name) {
		return -1
	}
	i, ok := s.nodeIndex[circuit.CanonicalNode(name)]
	if !ok {
		// Unreachable for circuits built through the circuit package, which
		// registers every terminal node.
		panic(fmt.Sprintf("mna: unknown node %q", name))
	}
	return i
}

// Solution holds the result of one AC solve.
type Solution struct {
	FreqHz   float64
	voltages map[string]complex128
	currents map[string]complex128
}

// Voltage returns the complex node voltage (0 for ground).
func (sol *Solution) Voltage(node string) (complex128, error) {
	node = circuit.CanonicalNode(node)
	if node == circuit.GroundName {
		return 0, nil
	}
	v, ok := sol.voltages[node]
	if !ok {
		return 0, fmt.Errorf("mna: no voltage for node %q", node)
	}
	return v, nil
}

// Current returns the branch current of a voltage-defined component
// (V, E, L, opamp output current).
func (sol *Solution) Current(component string) (complex128, error) {
	i, ok := sol.currents[component]
	if !ok {
		return 0, fmt.Errorf("mna: no branch current for component %q", component)
	}
	return i, nil
}

// SolveAt assembles and solves the MNA system at frequency f (Hz). It
// runs the sweep path — a one-point Sweeper observing no node, whose
// tally it flushes — so the two cannot differ in bits, accounting or
// error wrapping.
func (s *System) SolveAt(freqHz float64) (*Solution, error) {
	sw := &Sweeper{sys: s, ws: &numeric.Workspace{}, nodeIdx: -1}
	_, x, err := sw.FactorAt(freqHz)
	sw.FlushMetrics()
	if err != nil {
		return nil, err
	}
	sol := &Solution{
		FreqHz:   freqHz,
		voltages: make(map[string]complex128, len(s.nodeNames)),
		currents: make(map[string]complex128, len(s.branchOf)),
	}
	for i, name := range s.nodeNames {
		sol.voltages[name] = x[i]
	}
	for name, idx := range s.branchOf {
		sol.currents[name] = x[idx]
	}
	return sol, nil
}

// validFreq rejects the frequencies no assembly accepts.
func validFreq(freqHz float64) error {
	if freqHz < 0 || math.IsNaN(freqHz) || math.IsInf(freqHz, 0) {
		return fmt.Errorf("mna: invalid frequency %g", freqHz)
	}
	return nil
}

// ensureStamps builds the stamp caches on first use, reporting whether
// this call did the build (for the stamp-rebuild metrics).
func (s *System) ensureStamps() (rebuilt bool, err error) {
	if s.stampsBuilt {
		return false, nil
	}
	if err := s.buildStamps(); err != nil {
		return false, err
	}
	return true, nil
}

// prepareStamps is ensureStamps for a caller that assembles nothing: a
// build it does is counted as one, and a cache hit as nothing.
func (s *System) prepareStamps() error {
	rebuilt, err := s.ensureStamps()
	if rebuilt {
		accountStamps(true)
	}
	return err
}

// assembleVals produces the MNA system for one frequency: the fused
// scale-add M = G + jω·C over the pattern's nonzeros, written into mv
// (length pat.NNZ()), the cached excitation copied into rhs (length n),
// and the per-point constraint rows of any single-pole opamps in their
// pattern slots. It reports whether this call had to build the stamps
// (one full component walk) or served them from the cache. Every slot
// not stamped by G, C or a dynamic row holds exact +0 after the
// scale-add — the same bits a dense assembly leaves outside its stamps —
// which is what keeps the CSR factorization bit-identical to the dense
// LU the tests compare it against.
func (s *System) assembleVals(freqHz float64, mv, rhs []complex128, box *numeric.CSRValues) (rebuilt bool, err error) {
	if err := validFreq(freqHz); err != nil {
		return false, err
	}
	if rebuilt, err = s.ensureStamps(); err != nil {
		return false, err
	}
	jw := complex(0, 2*math.Pi*freqHz)

	gd, cd := s.gval, s.cval
	_ = mv[len(gd)-1] // one bounds check for the fused loop
	for i, gv := range gd {
		mv[i] = gv + jw*cd[i]
	}
	copy(rhs, s.rhs0)
	if len(s.dynamic) > 0 {
		box.P, box.Vals = s.pat, mv
		for _, op := range s.dynamic {
			s.stampOpampRow(box, op, jw)
		}
	}
	return rebuilt, nil
}

// Pattern builds the stamp caches if necessary and returns the shared CSR
// pattern every assembly of the system writes under.
func (s *System) Pattern() (*numeric.Pattern, error) {
	if err := s.prepareStamps(); err != nil {
		return nil, err
	}
	return s.pat, nil
}

// openLoopGain evaluates c's single-pole model A(jω) = A0/(1 + jω/ωp),
// with the A0 and pole of its live patch (SetOpampModel) if it has one,
// else its circuit's.
func (s *System) openLoopGain(c *circuit.Opamp, jw complex128) complex128 {
	a0, pole := c.A0, c.PoleHz
	for _, p := range s.opPatches {
		if p.op == c {
			a0, pole = p.a0, p.poleHz
		}
	}
	if a0 == 0 {
		a0 = 1e5 // sane default: 100 dB opamp
	}
	if pole <= 0 {
		pole = 10 // Hz, typical dominant pole of a 1 MHz-GBW opamp
	}
	wp := complex(2*math.Pi*pole, 0)
	return complex(a0, 0) / (1 + jw/wp)
}

// TransferAt returns H = V(output)/stimulus for the circuit's designated
// input/output at frequency f, by temporarily driving the input with a unit
// AC source. The circuit passed to NewSystem must NOT already contain a
// stimulus source on the input node.
//
// This is a convenience for one-off probes; sweeps should use
// analysis.Sweep which prepares the driven circuit once.
func TransferAt(ckt *circuit.Circuit, freqHz float64) (complex128, error) {
	driven, err := Driven(ckt)
	if err != nil {
		return 0, err
	}
	sys, err := NewSystem(driven)
	if err != nil {
		return 0, err
	}
	sol, err := sys.SolveAt(freqHz)
	if err != nil {
		return 0, err
	}
	return sol.Voltage(driven.Output)
}

// Driven clones the circuit and attaches a unit AC voltage source between
// its input node and ground. The stimulus component is named "_VSTIM"; it
// is an error if that name is taken or if a VSource already drives the
// input node.
func Driven(ckt *circuit.Circuit) (*circuit.Circuit, error) {
	in := circuit.CanonicalNode(ckt.Input)
	if in == "" {
		return nil, fmt.Errorf("%w: no input node", circuit.ErrInvalid)
	}
	for _, comp := range ckt.Components() {
		if v, ok := comp.(*circuit.VSource); ok {
			for _, t := range v.Terminals() {
				if circuit.CanonicalNode(t) == in {
					return nil, fmt.Errorf("%w: input node %q already driven by %q", circuit.ErrInvalid, in, v.Name())
				}
			}
		}
	}
	driven := ckt.Clone()
	if err := driven.Add(&circuit.VSource{Label: "_VSTIM", Plus: in, Minus: circuit.GroundName, Amplitude: 1}); err != nil {
		return nil, err
	}
	return driven, nil
}

// GainDb returns |H| in dB for a transfer value.
func GainDb(h complex128) float64 { return numeric.Db(cmplx.Abs(h)) }
