package netlint

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"analogdft/internal/circuit"
)

// analysis carries the shared state of one Analyze run.
type analysis struct {
	src Source
	ckt *circuit.Circuit
	rep *Report

	grounded   bool
	degree     map[string]int    // canonical non-ground node → terminal attachments
	firstComp  map[string]string // canonical node → first component touching it
	driven     map[string]bool   // nodes fixed by a voltage output
	ioOK       bool
	chainReady []string // validated chain, set by checkChain when usable
}

// prepare computes the node statistics every check shares.
func (a *analysis) prepare() {
	a.degree = make(map[string]int)
	a.firstComp = make(map[string]string)
	a.driven = make(map[string]bool)
	for _, comp := range a.ckt.Components() {
		for _, t := range comp.Terminals() {
			if circuit.IsGroundName(t) {
				a.grounded = true
				continue
			}
			n := circuit.CanonicalNode(t)
			a.degree[n]++
			if _, ok := a.firstComp[n]; !ok {
				a.firstComp[n] = comp.Name()
			}
		}
	}
	for _, drv := range a.drivers() {
		if !circuit.IsGroundName(drv.node) {
			a.driven[circuit.CanonicalNode(drv.node)] = true
		}
	}
}

// lineOf returns the deck line of a component (0 when unknown).
func (a *analysis) lineOf(component string) int {
	if a.src.Deck == nil {
		return 0
	}
	return a.src.Deck.Line(component)
}

// nodeLine returns the deck line of the first component touching a node.
func (a *analysis) nodeLine(node string) int {
	return a.lineOf(a.firstComp[circuit.CanonicalNode(node)])
}

// sortedNodes returns the canonical non-ground node names, sorted.
func (a *analysis) sortedNodes() []string {
	out := make([]string, 0, len(a.degree))
	for n := range a.degree {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// checkGround fires NL001 when no terminal references ground.
func (a *analysis) checkGround() {
	if a.grounded || len(a.ckt.Components()) == 0 {
		if len(a.ckt.Components()) == 0 {
			a.rep.add(Diagnostic{Code: CodeNoGround,
				Message: "circuit has no components",
				Hint:    "add elements before analyzing the deck"})
		}
		return
	}
	a.rep.add(Diagnostic{Code: CodeNoGround,
		Message: "no component terminal connects to the ground reference",
		Hint:    `tie at least one node to ground ("0", "gnd" or "ground"); MNA needs a reference node`})
}

// checkFloatingNodes fires NL002 for nodes with a single terminal
// attachment. The primary input is exempt (the stimulus source attaches
// there at analysis time) and so is a primary output fixed by a voltage
// driver (an opamp or controlled-source output is observable at degree 1).
func (a *analysis) checkFloatingNodes() {
	in := circuit.CanonicalNode(a.ckt.Input)
	out := circuit.CanonicalNode(a.ckt.Output)
	for _, n := range a.sortedNodes() {
		if a.degree[n] >= 2 || n == in {
			continue
		}
		if n == out && a.driven[n] {
			continue
		}
		a.rep.add(Diagnostic{Code: CodeFloatingNode,
			Node: n, Component: a.firstComp[n], Line: a.nodeLine(n),
			Message: fmt.Sprintf("node %q attaches to only one component terminal (%s), so its voltage is underdetermined", n, a.firstComp[n]),
			Hint:    "connect the node to at least one more element, or remove the dangling element"})
	}
}

// checkIslands fires NL003 for nodes unreachable from ground, treating
// each component as a hyperedge over its terminals. Skipped when NL001
// already fired: without a ground every node would be flagged.
func (a *analysis) checkIslands() {
	if !a.grounded {
		return
	}
	adj := make(map[string][]string)
	link := func(x, y string) {
		adj[x] = append(adj[x], y)
		adj[y] = append(adj[y], x)
	}
	for _, comp := range a.ckt.Components() {
		t := comp.Terminals()
		for i := 1; i < len(t); i++ {
			link(circuit.CanonicalNode(t[0]), circuit.CanonicalNode(t[i]))
		}
	}
	seen := map[string]bool{circuit.GroundName: true}
	stack := []string{circuit.GroundName}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range adj[n] {
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	for _, n := range a.sortedNodes() {
		if !seen[n] {
			a.rep.add(Diagnostic{Code: CodeIsland,
				Node: n, Component: a.firstComp[n], Line: a.nodeLine(n),
				Message: fmt.Sprintf("node %q is not reachable from ground; the network splits into disconnected islands", n),
				Hint:    "every island needs a path to ground; add a return element or merge the islands"})
		}
	}
}

// checkVoltageLoops fires NL004 when voltage-defining branches (V sources
// and VCVS outputs) close a loop — including two sources in parallel and a
// source shorted across ground — which makes the MNA system structurally
// singular for almost all element values.
func (a *analysis) checkVoltageLoops() {
	parent := make(map[string]string)
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	closes := func(x, y string) bool {
		rx, ry := find(circuit.CanonicalNode(x)), find(circuit.CanonicalNode(y))
		if rx == ry {
			return true
		}
		parent[rx] = ry
		return false
	}
	for _, comp := range a.ckt.Components() {
		var p, m string
		switch c := comp.(type) {
		case *circuit.VSource:
			p, m = c.Plus, c.Minus
		case *circuit.VCVS:
			p, m = c.OutP, c.OutM
		case *circuit.CCVS:
			p, m = c.OutP, c.OutM
		default:
			continue
		}
		if closes(p, m) {
			a.rep.add(Diagnostic{Code: CodeVoltageLoop,
				Component: comp.Name(), Line: a.lineOf(comp.Name()),
				Message: fmt.Sprintf("%s %q closes a loop of voltage-defining branches, a structural MNA singularity", kindNoun(comp), comp.Name()),
				Hint:    "break the loop (or the parallel/shorted source) with a series resistance"})
		}
	}
}

// driver is one voltage output that fixes a node's potential.
type driver struct {
	node string
	comp string
	desc string
}

// drivers lists every node-voltage driver: opamp outputs always, and
// source outputs whose other terminal is grounded (those pin the node to a
// defined potential).
func (a *analysis) drivers() []driver {
	var out []driver
	for _, comp := range a.ckt.Components() {
		switch c := comp.(type) {
		case *circuit.Opamp:
			out = append(out, driver{c.Out, c.Label, "opamp output"})
		case *circuit.VCVS:
			if circuit.IsGroundName(c.OutM) {
				out = append(out, driver{c.OutP, c.Label, "VCVS output"})
			} else if circuit.IsGroundName(c.OutP) {
				out = append(out, driver{c.OutM, c.Label, "VCVS output"})
			}
		case *circuit.CCVS:
			if circuit.IsGroundName(c.OutM) {
				out = append(out, driver{c.OutP, c.Label, "CCVS output"})
			} else if circuit.IsGroundName(c.OutP) {
				out = append(out, driver{c.OutM, c.Label, "CCVS output"})
			}
		case *circuit.VSource:
			if circuit.IsGroundName(c.Minus) {
				out = append(out, driver{c.Plus, c.Label, "voltage source"})
			} else if circuit.IsGroundName(c.Plus) {
				out = append(out, driver{c.Minus, c.Label, "voltage source"})
			}
		}
	}
	return out
}

// checkDriverConflicts fires NL005 when a node is fixed by two voltage
// outputs, or when an opamp output is tied straight to ground.
func (a *analysis) checkDriverConflicts() {
	byNode := make(map[string][]driver)
	for _, d := range a.drivers() {
		if circuit.IsGroundName(d.node) {
			a.rep.add(Diagnostic{Code: CodeDriverConflict,
				Component: d.comp, Node: circuit.GroundName, Line: a.lineOf(d.comp),
				Message: fmt.Sprintf("%s of %q is tied to ground, fighting the reference node", d.desc, d.comp),
				Hint:    "a driven output cannot share the ground node; rewire the output"})
			continue
		}
		n := circuit.CanonicalNode(d.node)
		byNode[n] = append(byNode[n], d)
	}
	for _, n := range sortedKeys(byNode) {
		ds := byNode[n]
		if len(ds) < 2 {
			continue
		}
		var who []string
		for _, d := range ds {
			who = append(who, fmt.Sprintf("%s %s", d.comp, d.desc))
		}
		a.rep.add(Diagnostic{Code: CodeDriverConflict,
			Component: ds[0].comp, Node: n, Line: a.lineOf(ds[0].comp),
			Message: fmt.Sprintf("node %q is fixed by %d voltage outputs (%s)", n, len(ds), strings.Join(who, ", ")),
			Hint:    "at most one output may drive a node; decouple the extra driver through a resistor"})
	}
}

// checkGroundSpellings fires NL006 when the deck mixes ground aliases.
func (a *analysis) checkGroundSpellings() {
	if a.src.Deck == nil || len(a.src.Deck.GroundSpellings) <= 1 {
		return
	}
	quoted := make([]string, len(a.src.Deck.GroundSpellings))
	for i, s := range a.src.Deck.GroundSpellings {
		quoted[i] = fmt.Sprintf("%q", s)
	}
	a.rep.add(Diagnostic{Code: CodeGroundAlias,
		Node:    circuit.GroundName,
		Message: fmt.Sprintf("deck spells the ground node %d ways: %s", len(quoted), strings.Join(quoted, ", ")),
		Hint:    `pick one spelling (conventionally "0") for the whole deck`})
}

// checkCaseCollisions fires NL007 for node names that differ only by
// letter case — legal (node names are case-sensitive) but almost always a
// typo that silently splits one electrical node in two.
func (a *analysis) checkCaseCollisions() {
	byLower := make(map[string][]string)
	for _, n := range a.ckt.Nodes() {
		byLower[strings.ToLower(n)] = append(byLower[strings.ToLower(n)], n)
	}
	for _, low := range sortedKeys(byLower) {
		group := byLower[low]
		if len(group) < 2 {
			continue
		}
		sort.Strings(group)
		quoted := make([]string, len(group))
		for i, n := range group {
			quoted[i] = fmt.Sprintf("%q", n)
		}
		a.rep.add(Diagnostic{Code: CodeNodeCaseCollision,
			Node: group[0], Line: a.nodeLine(group[0]),
			Message: fmt.Sprintf("node names %s differ only by case and denote distinct nodes", strings.Join(quoted, " and ")),
			Hint:    "node names are case-sensitive; unify the spelling if one node was intended"})
	}
}

// plausible value ranges per passive kind. Values outside are almost
// always a scale-suffix mistake (SPICE "m" is milli; 1e6 is "meg").
var plausibleRange = map[circuit.Kind][2]float64{
	circuit.KindResistor:  {1e-1, 1e9},
	circuit.KindCapacitor: {1e-15, 1e-3},
	circuit.KindInductor:  {1e-9, 1e3},
}

// checkValues fires NL008 for non-positive (or non-finite) passive values
// and NL009 for finite positive values far outside the physical range.
func (a *analysis) checkValues() {
	for _, v := range a.ckt.Passives() {
		val := v.Value()
		if math.IsNaN(val) || math.IsInf(val, 0) || val <= 0 {
			a.rep.add(Diagnostic{Code: CodeNonPositiveValue,
				Component: v.Name(), Line: a.lineOf(v.Name()),
				Message: fmt.Sprintf("%s %q has non-positive value %g %s", kindNoun(v), v.Name(), val, v.Unit()),
				Hint:    "passive element values must be finite and positive"})
			continue
		}
		r, ok := plausibleRange[v.Kind()]
		if ok && (val < r[0] || val > r[1]) {
			a.rep.add(Diagnostic{Code: CodeImplausibleValue,
				Component: v.Name(), Line: a.lineOf(v.Name()),
				Message: fmt.Sprintf("%s %q value %g %s is outside the plausible range [%g, %g] %s",
					kindNoun(v), v.Name(), val, v.Unit(), r[0], r[1], v.Unit()),
				Hint: `check the scale suffix: "m" means milli in SPICE; use "meg" for 1e6`})
		}
	}
}

// checkIO fires NL010 when the primary input or output is unset or not a
// node of the circuit, and records whether the DFT structure checks can
// rely on the ports.
func (a *analysis) checkIO() {
	a.ioOK = true
	var inLine, outLine int
	if a.src.Deck != nil {
		inLine, outLine = a.src.Deck.InputLine, a.src.Deck.OutputLine
	}
	check := func(role, node string, line int) {
		if node == "" {
			a.ioOK = false
			a.rep.add(Diagnostic{Code: CodeMissingIO,
				Message: fmt.Sprintf("primary %s node is unset", role),
				Hint:    fmt.Sprintf("declare it with a .%s directive", role)})
			return
		}
		if _, ok := a.degree[circuit.CanonicalNode(node)]; !ok {
			a.ioOK = false
			a.rep.add(Diagnostic{Code: CodeMissingIO,
				Node: node, Line: line,
				Message: fmt.Sprintf("primary %s node %q is not attached to any component", role, node),
				Hint:    "point the directive at an existing node of the netlist"})
		}
	}
	check("input", a.ckt.Input, inLine)
	check("output", a.ckt.Output, outLine)
}

// checkFaultTargets fires NL011 for fault-list entries that name
// components the circuit does not have, or that are not passives (the
// paper's fault universe covers only R, C and L deviations).
func (a *analysis) checkFaultTargets() {
	for _, name := range a.src.FaultTargets {
		comp, ok := a.ckt.Component(name)
		if !ok {
			a.rep.add(Diagnostic{Code: CodeBadFaultTarget,
				Component: name,
				Message:   fmt.Sprintf("fault target %q does not exist in the circuit", name),
				Hint:      "check the fault list against the deck's component names"})
			continue
		}
		switch comp.Kind() {
		case circuit.KindResistor, circuit.KindCapacitor, circuit.KindInductor:
		default:
			a.rep.add(Diagnostic{Code: CodeBadFaultTarget,
				Component: name, Line: a.lineOf(name),
				Message: fmt.Sprintf("fault target %q is a %s, not a passive element", name, kindNoun(comp)),
				Hint:    "the deviation fault universe covers only R, C and L elements"})
		}
	}
}

// checkChain validates the configurable-opamp chain (NL012) and, when it
// is well-formed and the ports are usable, runs the per-configuration
// structure checks (NL013, NL014).
func (a *analysis) checkChain() {
	if len(a.src.Chain) == 0 {
		return
	}
	var chainLine int
	if a.src.Deck != nil {
		chainLine = a.src.Deck.ChainLine
	}
	ok := true
	seen := make(map[string]bool, len(a.src.Chain))
	for _, name := range a.src.Chain {
		if seen[name] {
			ok = false
			a.rep.add(Diagnostic{Code: CodeBadChain,
				Component: name, Line: chainLine,
				Message: fmt.Sprintf("chain entry %q is duplicated", name),
				Hint:    "each configurable opamp appears once in the .chain directive"})
			continue
		}
		seen[name] = true
		comp, found := a.ckt.Component(name)
		if !found {
			ok = false
			a.rep.add(Diagnostic{Code: CodeBadChain,
				Component: name, Line: chainLine,
				Message: fmt.Sprintf("chain names unknown component %q", name),
				Hint:    "the .chain directive must list opamps declared in the deck"})
			continue
		}
		if _, isOp := comp.(*circuit.Opamp); !isOp {
			ok = false
			a.rep.add(Diagnostic{Code: CodeBadChain,
				Component: name, Line: a.lineOf(name),
				Message: fmt.Sprintf("chain entry %q is a %s, not an opamp", name, kindNoun(comp)),
				Hint:    "only opamps can be replaced by configurable opamps"})
		}
	}
	if !ok || !a.ioOK {
		return
	}
	a.chainReady = a.src.Chain
	a.checkConfigurations(chainLine)
}

// kindNoun returns a human noun for a component's kind.
func kindNoun(c circuit.Component) string {
	switch c.Kind() {
	case circuit.KindResistor:
		return "resistor"
	case circuit.KindCapacitor:
		return "capacitor"
	case circuit.KindInductor:
		return "inductor"
	case circuit.KindVSource:
		return "voltage source"
	case circuit.KindISource:
		return "current source"
	case circuit.KindVCVS:
		return "VCVS"
	case circuit.KindVCCS:
		return "VCCS"
	case circuit.KindCCVS:
		return "CCVS"
	case circuit.KindCCCS:
		return "CCCS"
	case circuit.KindOpamp:
		return "opamp"
	default:
		return c.Kind().String()
	}
}

// sortedKeys returns the sorted keys of a string-keyed map.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
