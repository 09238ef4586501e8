// Package dft implements the multi-configuration DFT technique of
// Renovell, Azaïs and Bertrand: systematic (or partial) replacement of the
// opamps of an analog circuit by configurable opamps whose test inputs are
// chained from the primary input towards the primary output, and the
// enumeration and emulation of the 2^n resulting circuit configurations.
package dft

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"analogdft/internal/circuit"
)

// ErrBadChain is returned when the requested configurable-opamp chain is
// malformed (unknown opamp, duplicate, empty, not an opamp).
var ErrBadChain = errors.New("dft: bad configurable-opamp chain")

// ErrBadConfig is returned when a configuration does not belong to the
// modified circuit it is applied to.
var ErrBadConfig = errors.New("dft: bad configuration")

// Configuration identifies one test configuration of a circuit with N
// configurable opamps. Opamp i of the chain (0-based) is emulated in
// follower mode iff bit i of Index is set. Index 0 is the functional
// configuration C0; index 2^N−1 is the transparent configuration.
type Configuration struct {
	Index int
	N     int
}

// Follower reports whether chain opamp i (0-based) is in follower mode.
func (c Configuration) Follower(i int) bool {
	return i >= 0 && i < c.N && c.Index&(1<<uint(i)) != 0
}

// FollowerCount returns the number of opamps in follower mode.
func (c Configuration) FollowerCount() int {
	n := 0
	for i := 0; i < c.N; i++ {
		if c.Follower(i) {
			n++
		}
	}
	return n
}

// IsFunctional reports whether this is C0 (all opamps normal).
func (c Configuration) IsFunctional() bool { return c.Index == 0 }

// IsTransparent reports whether every opamp is in follower mode — the
// identity-function configuration of the paper, used for opamp-internal
// faults and excluded from passive-fault analysis.
func (c Configuration) IsTransparent() bool { return c.Index == 1<<uint(c.N)-1 }

// Label returns the paper's configuration name, e.g. "C5".
func (c Configuration) Label() string { return fmt.Sprintf("C%d", c.Index) }

// Vector returns the configuration vector as in Table 1 of the paper: the
// binary expansion of Index, MSB first, so that with n = 3 configuration
// C1 prints "001" and C5 prints "101".
func (c Configuration) Vector() string {
	b := make([]byte, c.N)
	for i := 0; i < c.N; i++ {
		if c.Follower(c.N - 1 - i) {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// String implements fmt.Stringer.
func (c Configuration) String() string { return c.Label() + "(" + c.Vector() + ")" }

// Modified is a circuit processed by the multi-configuration technique:
// the template circuit with configurable opamps inserted, plus the chain
// bookkeeping needed to emulate configurations and to map configurations
// back onto opamps (§4.3 of the paper).
type Modified struct {
	// Base is the modified circuit template. All chain opamps are
	// Configurable with their TestIn wired; every opamp is in ModeNormal.
	Base *circuit.Circuit
	// Chain lists the configurable opamp names in test-chain order (the
	// order bits of a Configuration refer to).
	Chain []string
	// AllOpamps lists every opamp of the base circuit in netlist order
	// (used for partial-DFT display such as "10-").
	AllOpamps []string
}

// Apply clones the circuit and replaces the named opamps (in the given
// chain order) by configurable opamps: each gains a TestIn terminal wired
// to the previous chain member's output node, the first to the primary
// input. The original circuit is left untouched.
//
// Passing every opamp of the circuit yields the full multi-configuration
// DFT; passing a subset yields a partial DFT (§4.3).
func Apply(ckt *circuit.Circuit, chain []string) (*Modified, error) {
	if len(chain) == 0 {
		return nil, fmt.Errorf("%w: empty chain", ErrBadChain)
	}
	if ckt.Input == "" {
		return nil, fmt.Errorf("%w: circuit has no input node", circuit.ErrInvalid)
	}
	base := ckt.Clone()

	seen := make(map[string]bool, len(chain))
	prevOut := circuit.CanonicalNode(base.Input)
	for _, name := range chain {
		if seen[name] {
			return nil, fmt.Errorf("%w: duplicate opamp %q", ErrBadChain, name)
		}
		seen[name] = true
		comp, ok := base.Component(name)
		if !ok {
			return nil, fmt.Errorf("%w: unknown component %q", ErrBadChain, name)
		}
		op, ok := comp.(*circuit.Opamp)
		if !ok {
			return nil, fmt.Errorf("%w: %q is a %v, not an opamp", ErrBadChain, name, comp.Kind())
		}
		op.Configurable = true
		op.TestIn = prevOut
		op.Mode = circuit.ModeNormal
		prevOut = circuit.CanonicalNode(op.Out)
	}

	var all []string
	for _, op := range base.Opamps() {
		all = append(all, op.Name())
	}
	return &Modified{Base: base, Chain: append([]string(nil), chain...), AllOpamps: all}, nil
}

// ApplyAll is Apply over every opamp of the circuit in netlist order — the
// brute-force, systematic replacement of §3.
func ApplyAll(ckt *circuit.Circuit) (*Modified, error) {
	var chain []string
	for _, op := range ckt.Opamps() {
		chain = append(chain, op.Name())
	}
	if len(chain) == 0 {
		return nil, fmt.Errorf("%w: circuit has no opamps", ErrBadChain)
	}
	return Apply(ckt, chain)
}

// N returns the number of configurable opamps.
func (m *Modified) N() int { return len(m.Chain) }

// NumConfigurations returns 2^N.
func (m *Modified) NumConfigurations() int { return 1 << uint(m.N()) }

// Configurations enumerates all 2^N configurations in index order,
// optionally dropping the transparent one (which cannot detect passive
// faults and is reserved for opamp-internal testing in the paper).
func (m *Modified) Configurations(includeTransparent bool) []Configuration {
	n := m.N()
	var out []Configuration
	for i := 0; i < 1<<uint(n); i++ {
		c := Configuration{Index: i, N: n}
		if !includeTransparent && c.IsTransparent() {
			continue
		}
		out = append(out, c)
	}
	return out
}

// Config returns the configuration with the given index.
func (m *Modified) Config(index int) (Configuration, error) {
	if index < 0 || index >= m.NumConfigurations() {
		return Configuration{}, fmt.Errorf("%w: index %d of %d", ErrBadConfig, index, m.NumConfigurations())
	}
	return Configuration{Index: index, N: m.N()}, nil
}

// Configure returns a deep copy of the base circuit emulated in the given
// configuration: chain opamp modes are set from the configuration bits.
func (m *Modified) Configure(cfg Configuration) (*circuit.Circuit, error) {
	if cfg.N != m.N() || cfg.Index < 0 || cfg.Index >= m.NumConfigurations() {
		return nil, fmt.Errorf("%w: %v for a %d-opamp chain", ErrBadConfig, cfg, m.N())
	}
	dftConfigures.Inc()
	ckt := m.Base.Clone()
	for i, name := range m.Chain {
		comp, ok := ckt.Component(name)
		if !ok {
			return nil, fmt.Errorf("%w: chain opamp %q vanished", ErrBadChain, name)
		}
		op := comp.(*circuit.Opamp)
		if cfg.Follower(i) {
			op.Mode = circuit.ModeFollower
		} else {
			op.Mode = circuit.ModeNormal
		}
	}
	ckt.Name = fmt.Sprintf("%s@%s", m.Base.Name, cfg.Label())
	return ckt, nil
}

// FollowerOpamps returns the names of the chain opamps in follower mode
// under cfg, in chain order — the opamp product of the §4.3 mapping
// (Table 3).
func (m *Modified) FollowerOpamps(cfg Configuration) []string {
	var out []string
	for i, name := range m.Chain {
		if cfg.Follower(i) {
			out = append(out, name)
		}
	}
	return out
}

// MaskVector renders cfg in the paper's partial-DFT notation (§4.3,
// Table 4): one character per opamp of the original circuit in netlist
// order — '1'/'0' for a configurable opamp in follower/normal mode, '-'
// for an opamp that was not made configurable. With chain {OP1, OP2} over
// opamps {OP1, OP2, OP3}, configuration index 1 renders "10-".
func (m *Modified) MaskVector(cfg Configuration) string {
	pos := make(map[string]int, len(m.Chain))
	for i, name := range m.Chain {
		pos[name] = i
	}
	var b strings.Builder
	for _, name := range m.AllOpamps {
		i, ok := pos[name]
		switch {
		case !ok:
			b.WriteByte('-')
		case cfg.Follower(i):
			b.WriteByte('1')
		default:
			b.WriteByte('0')
		}
	}
	return b.String()
}

// SubChain returns a new Modified restricted to the named opamps (a
// partial DFT), rebuilt from an unmodified clone of the original base so
// that non-selected opamps revert to classical, non-configurable opamps.
func (m *Modified) SubChain(names []string) (*Modified, error) {
	pristine := m.Base.Clone()
	for _, opName := range m.Chain {
		comp, ok := pristine.Component(opName)
		if !ok {
			return nil, fmt.Errorf("%w: chain opamp %q vanished", ErrBadChain, opName)
		}
		op := comp.(*circuit.Opamp)
		op.Configurable = false
		op.TestIn = ""
		op.Mode = circuit.ModeNormal
	}
	pristine.Name = m.Base.Name
	sub := make([]string, 0, len(names))
	chainSet := make(map[string]bool, len(m.Chain))
	for _, n := range m.Chain {
		chainSet[n] = true
	}
	// Preserve original chain order regardless of the order names come in.
	want := make(map[string]bool, len(names))
	for _, n := range names {
		if !chainSet[n] {
			return nil, fmt.Errorf("%w: %q is not in the original chain", ErrBadChain, n)
		}
		want[n] = true
	}
	for _, n := range m.Chain {
		if want[n] {
			sub = append(sub, n)
		}
	}
	if len(sub) != len(names) {
		return nil, fmt.Errorf("%w: duplicate names in sub-chain", ErrBadChain)
	}
	return Apply(pristine, sub)
}

// Lift maps cfg, a configuration of sub, onto the configuration of m with
// the same follower opamps. sub must come from m.SubChain; the two
// configurations then emulate the same circuit unless the test chain was
// rewired. SubChain keeps every component, value and node of m's base and
// only changes test inputs: opamps outside sub lose theirs, and a chosen
// opamp whose chain predecessor was dropped is fed from an earlier output
// (sub is not a prefix of m's chain). A normal-mode opamp ignores its test
// input, so only the followers matter: ok is false when some follower of
// cfg has a different test input in sub than in m, or when cfg does not
// belong to sub.
func (m *Modified) Lift(sub *Modified, cfg Configuration) (lifted Configuration, ok bool) {
	if cfg.N != sub.N() || cfg.Index < 0 || cfg.Index >= sub.NumConfigurations() {
		return Configuration{}, false
	}
	idx := 0
	for i, name := range sub.Chain {
		if !cfg.Follower(i) {
			continue
		}
		j := slices.Index(m.Chain, name)
		if j < 0 || testIn(m.Base, name) != testIn(sub.Base, name) {
			return Configuration{}, false
		}
		idx |= 1 << uint(j)
	}
	return Configuration{Index: idx, N: m.N()}, true
}

// testIn returns the test-input node of the named opamp, or "" when it is
// missing or not an opamp.
func testIn(ckt *circuit.Circuit, name string) string {
	comp, _ := ckt.Component(name)
	if op, ok := comp.(*circuit.Opamp); ok {
		return op.TestIn
	}
	return ""
}

// AccessBlock returns the configuration that exposes an embedded block
// under test (§1 of the paper: the multi-configuration "ensures the full
// controllability/observability of any BUT by making all the other blocks
// transparent"): every chain opamp NOT in blockOpamps is switched to
// follower mode, so the signal path is buffered straight through the
// surrounding blocks while the named block operates normally.
func (m *Modified) AccessBlock(blockOpamps []string) (Configuration, error) {
	inBlock := make(map[string]bool, len(blockOpamps))
	for _, name := range blockOpamps {
		inBlock[name] = true
	}
	chainSet := make(map[string]bool, len(m.Chain))
	for _, name := range m.Chain {
		chainSet[name] = true
	}
	for _, name := range blockOpamps {
		if !chainSet[name] {
			return Configuration{}, fmt.Errorf("%w: block opamp %q not in chain", ErrBadChain, name)
		}
	}
	idx := 0
	for i, name := range m.Chain {
		if !inBlock[name] {
			idx |= 1 << uint(i)
		}
	}
	return Configuration{Index: idx, N: m.N()}, nil
}
