// Package spice implements a SPICE-flavoured netlist front-end for the
// library: a deck parser with engineering-notation values, opamp and DFT
// extensions, and a writer that round-trips circuits back to deck form.
//
// Deck format (one element or directive per line):
//
//   - full-line comment                  ; inline comment
//     .title my-filter
//     R1   in  a   15.9k                   resistor
//     C1   v1  a   1n                      capacitor
//     L1   x   0   10m                     inductor
//     V1   in  0   1                       independent voltage source
//     I1   0   n   1m                      independent current source
//     E1   out 0   p   m   2.5             VCVS  (out+, out−, ctrl+, ctrl−, gain)
//     G1   out 0   p   m   1m              VCCS  (gm)
//     OA1  p   n   out                     ideal opamp (in+, in−, out)
//     OA2  p   n   out  a0=1e5 pole=10     single-pole opamp
//     .input  in                           primary input node
//     .output out                          primary output node
//     .chain  OA1 OA2                      configurable-opamp chain (DFT)
//     .end
//
// Node "0", "gnd" and "ground" denote the ground reference.
package spice

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"analogdft/internal/circuit"
)

// ErrSyntax is returned for malformed decks; the message carries the line
// number.
var ErrSyntax = errors.New("spice: syntax error")

// Deck is a parsed netlist: the circuit plus the optional DFT chain
// declared with .chain, and source-location bookkeeping for diagnostics.
type Deck struct {
	Circuit *circuit.Circuit
	Chain   []string

	// Lines maps a component name to the 1-based deck line it was
	// declared on. Empty for decks built programmatically.
	Lines map[string]int
	// InputLine, OutputLine and ChainLine are the 1-based lines of the
	// .input, .output and .chain directives (0 when absent).
	InputLine, OutputLine, ChainLine int
	// GroundSpellings lists the distinct raw spellings of the ground
	// node seen in the deck ("0", "gnd", "GND", "ground", ...), in
	// first-seen order. More than one entry is legal but worth a lint
	// warning: the deck mixes aliases for the same electrical node.
	GroundSpellings []string
}

// Line returns the deck line a component was declared on (0 if unknown).
func (d *Deck) Line(component string) int { return d.Lines[component] }

// noteNodes records the raw spelling of every ground reference among the
// given node names, before circuit.Add canonicalizes them away.
func (d *Deck) noteNodes(nodes ...string) {
	for _, n := range nodes {
		if !circuit.IsGroundName(n) {
			continue
		}
		dup := false
		for _, seen := range d.GroundSpellings {
			if seen == n {
				dup = true
				break
			}
		}
		if !dup {
			d.GroundSpellings = append(d.GroundSpellings, n)
		}
	}
}

// ParseValue parses a SPICE engineering value: an optional decimal number
// followed by an optional scale suffix (f p n u m k meg g t,
// case-insensitive; "M"/"m" means milli as in SPICE, use "meg" for 1e6).
// Trailing unit letters after the suffix (e.g. "1kOhm", "100nF") are
// ignored.
func ParseValue(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("%w: empty value", ErrSyntax)
	}
	// Split numeric prefix.
	i := 0
	for i < len(s) && (s[i] == '+' || s[i] == '-' || s[i] == '.' ||
		(s[i] >= '0' && s[i] <= '9') ||
		((s[i] == 'e' || s[i] == 'E') && i+1 < len(s) &&
			(s[i+1] == '+' || s[i+1] == '-' || (s[i+1] >= '0' && s[i+1] <= '9')) && hasDigitBefore(s, i))) {
		if s[i] == 'e' || s[i] == 'E' {
			i++ // consume exponent marker, sign/digit consumed by loop
		}
		i++
	}
	numPart, suffix := s[:i], strings.ToLower(s[i:])
	v, err := strconv.ParseFloat(numPart, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad number %q", ErrSyntax, s)
	}
	scale := 1.0
	switch {
	case suffix == "":
	case strings.HasPrefix(suffix, "meg"):
		scale = 1e6
	case strings.HasPrefix(suffix, "f"):
		scale = 1e-15
	case strings.HasPrefix(suffix, "p"):
		scale = 1e-12
	case strings.HasPrefix(suffix, "n"):
		scale = 1e-9
	case strings.HasPrefix(suffix, "u"):
		scale = 1e-6
	case strings.HasPrefix(suffix, "m"):
		scale = 1e-3
	case strings.HasPrefix(suffix, "k"):
		scale = 1e3
	case strings.HasPrefix(suffix, "g"):
		scale = 1e9
	case strings.HasPrefix(suffix, "t"):
		scale = 1e12
	default:
		// Pure unit suffix such as "Ohm", "F", "H", "V", "A", "Hz".
		if !isUnitWord(suffix) {
			return 0, fmt.Errorf("%w: bad value suffix %q", ErrSyntax, s)
		}
	}
	return v * scale, nil
}

func hasDigitBefore(s string, i int) bool {
	for j := 0; j < i; j++ {
		if s[j] >= '0' && s[j] <= '9' {
			return true
		}
	}
	return false
}

func isUnitWord(s string) bool {
	switch s {
	case "ohm", "ohms", "f", "h", "v", "a", "hz", "s":
		return true
	}
	return false
}

// FormatValue renders a value in engineering notation (e.g. 15900 →
// "15.9k", 1e-9 → "1n").
func FormatValue(v float64) string {
	if v == 0 {
		return "0"
	}
	abs := math.Abs(v)
	type scale struct {
		mult float64
		suf  string
	}
	scales := []scale{
		{1e12, "t"}, {1e9, "g"}, {1e6, "meg"}, {1e3, "k"},
		{1, ""}, {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"},
	}
	for _, sc := range scales {
		if abs >= sc.mult {
			return trimFloat(v/sc.mult) + sc.suf
		}
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', 6, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	return s
}

// maxLine is the longest line Parse reads, in bytes.
const maxLine = 1 << 20

// Parse reads a deck and builds the circuit.
func Parse(r io.Reader) (*Deck, error) {
	deck := &Deck{Circuit: circuit.New("netlist"), Lines: make(map[string]int)}
	sc := bufio.NewScanner(r)
	// The buffer starts small and grows with the longest line, up to the
	// 1 MiB line limit: a deck of a few hundred bytes pays for no more.
	sc.Buffer(nil, maxLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "*") {
			continue
		}
		fields := strings.Fields(line)
		if err := deck.parseLine(lineNo, fields); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: line %d: %v", ErrSyntax, lineNo+1, err)
	}
	return deck, nil
}

// ParseString is Parse on a string.
func ParseString(s string) (*Deck, error) { return Parse(strings.NewReader(s)) }

func (d *Deck) parseLine(lineNo int, f []string) error {
	head := f[0]
	lower := strings.ToLower(head)
	if strings.HasPrefix(lower, ".") {
		return d.parseDirective(lineNo, lower, f[1:])
	}
	if err := d.parseElement(head, lower, f); err != nil {
		return err
	}
	d.Lines[head] = lineNo
	return nil
}

func (d *Deck) parseElement(head, lower string, f []string) error {
	switch {
	case strings.HasPrefix(lower, "oa"):
		return d.parseOpamp(head, f[1:])
	case lower[0] == 'r':
		return d.parseTwoTerminal(head, f[1:], func(a, b string, v float64) circuit.Component {
			return &circuit.Resistor{Label: head, A: a, B: b, Ohms: v}
		})
	case lower[0] == 'c':
		return d.parseTwoTerminal(head, f[1:], func(a, b string, v float64) circuit.Component {
			return &circuit.Capacitor{Label: head, A: a, B: b, Farads: v}
		})
	case lower[0] == 'l':
		return d.parseTwoTerminal(head, f[1:], func(a, b string, v float64) circuit.Component {
			return &circuit.Inductor{Label: head, A: a, B: b, Henries: v}
		})
	case lower[0] == 'v':
		return d.parseTwoTerminal(head, f[1:], func(a, b string, v float64) circuit.Component {
			return &circuit.VSource{Label: head, Plus: a, Minus: b, Amplitude: v}
		})
	case lower[0] == 'i':
		return d.parseTwoTerminal(head, f[1:], func(a, b string, v float64) circuit.Component {
			return &circuit.ISource{Label: head, Plus: a, Minus: b, Amplitude: v}
		})
	case lower[0] == 'e':
		return d.parseControlled(head, f[1:], func(op, om, cp, cm string, v float64) circuit.Component {
			return &circuit.VCVS{Label: head, OutP: op, OutM: om, CtrlP: cp, CtrlM: cm, Gain: v}
		})
	case lower[0] == 'g':
		return d.parseControlled(head, f[1:], func(op, om, cp, cm string, v float64) circuit.Component {
			return &circuit.VCCS{Label: head, OutP: op, OutM: om, CtrlP: cp, CtrlM: cm, Gm: v}
		})
	case lower[0] == 'h':
		return d.parseCurrentControlled(head, f[1:], func(op, om, ctrl string, v float64) circuit.Component {
			return &circuit.CCVS{Label: head, OutP: op, OutM: om, CtrlVSource: ctrl, Rt: v}
		})
	case lower[0] == 'f':
		return d.parseCurrentControlled(head, f[1:], func(op, om, ctrl string, v float64) circuit.Component {
			return &circuit.CCCS{Label: head, OutP: op, OutM: om, CtrlVSource: ctrl, Gain: v}
		})
	default:
		return fmt.Errorf("%w: unknown element %q", ErrSyntax, head)
	}
}

func (d *Deck) parseTwoTerminal(name string, args []string, mk func(a, b string, v float64) circuit.Component) error {
	if len(args) != 3 {
		return fmt.Errorf("%w: %s needs 2 nodes and a value", ErrSyntax, name)
	}
	v, err := ParseValue(args[2])
	if err != nil {
		return err
	}
	d.noteNodes(args[0], args[1])
	return d.Circuit.Add(mk(args[0], args[1], v))
}

func (d *Deck) parseControlled(name string, args []string, mk func(op, om, cp, cm string, v float64) circuit.Component) error {
	if len(args) != 5 {
		return fmt.Errorf("%w: %s needs 4 nodes and a value", ErrSyntax, name)
	}
	v, err := ParseValue(args[4])
	if err != nil {
		return err
	}
	d.noteNodes(args[0], args[1], args[2], args[3])
	return d.Circuit.Add(mk(args[0], args[1], args[2], args[3], v))
}

func (d *Deck) parseCurrentControlled(name string, args []string, mk func(op, om, ctrl string, v float64) circuit.Component) error {
	if len(args) != 4 {
		return fmt.Errorf("%w: %s needs 2 nodes, a control V source and a value", ErrSyntax, name)
	}
	v, err := ParseValue(args[3])
	if err != nil {
		return err
	}
	d.noteNodes(args[0], args[1])
	return d.Circuit.Add(mk(args[0], args[1], args[2], v))
}

func (d *Deck) parseOpamp(name string, args []string) error {
	if len(args) < 3 {
		return fmt.Errorf("%w: %s needs in+, in−, out", ErrSyntax, name)
	}
	op := &circuit.Opamp{Label: name, InP: args[0], InN: args[1], Out: args[2], Model: circuit.ModelIdeal}
	for _, kv := range args[3:] {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return fmt.Errorf("%w: bad opamp parameter %q", ErrSyntax, kv)
		}
		v, err := ParseValue(parts[1])
		if err != nil {
			return err
		}
		switch strings.ToLower(parts[0]) {
		case "a0":
			op.A0 = v
			op.Model = circuit.ModelSinglePole
		case "pole":
			op.PoleHz = v
			op.Model = circuit.ModelSinglePole
		default:
			return fmt.Errorf("%w: unknown opamp parameter %q", ErrSyntax, parts[0])
		}
	}
	d.noteNodes(args[0], args[1], args[2])
	return d.Circuit.Add(op)
}

func (d *Deck) parseDirective(lineNo int, name string, args []string) error {
	switch name {
	case ".title":
		if len(args) < 1 {
			return fmt.Errorf("%w: .title needs a name", ErrSyntax)
		}
		d.Circuit.Name = strings.Join(args, " ")
	case ".input":
		if len(args) != 1 {
			return fmt.Errorf("%w: .input needs one node", ErrSyntax)
		}
		d.Circuit.Input = args[0]
		d.InputLine = lineNo
	case ".output":
		if len(args) != 1 {
			return fmt.Errorf("%w: .output needs one node", ErrSyntax)
		}
		d.Circuit.Output = args[0]
		d.OutputLine = lineNo
	case ".chain":
		if len(args) == 0 {
			return fmt.Errorf("%w: .chain needs opamp names", ErrSyntax)
		}
		d.Chain = append([]string(nil), args...)
		d.ChainLine = lineNo
	case ".end":
		// Accepted, no effect.
	default:
		return fmt.Errorf("%w: unknown directive %q", ErrSyntax, name)
	}
	return nil
}

// Write renders the circuit (and optional chain) as a deck that Parse
// round-trips.
func Write(w io.Writer, ckt *circuit.Circuit, chain []string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "* generated by analogdft\n")
	fmt.Fprintf(&b, ".title %s\n", ckt.Name)
	for _, comp := range ckt.Components() {
		switch c := comp.(type) {
		case *circuit.Resistor:
			fmt.Fprintf(&b, "%s %s %s %s\n", c.Label, c.A, c.B, FormatValue(c.Ohms))
		case *circuit.Capacitor:
			fmt.Fprintf(&b, "%s %s %s %s\n", c.Label, c.A, c.B, FormatValue(c.Farads))
		case *circuit.Inductor:
			fmt.Fprintf(&b, "%s %s %s %s\n", c.Label, c.A, c.B, FormatValue(c.Henries))
		case *circuit.VSource:
			fmt.Fprintf(&b, "%s %s %s %s\n", c.Label, c.Plus, c.Minus, FormatValue(c.Amplitude))
		case *circuit.ISource:
			fmt.Fprintf(&b, "%s %s %s %s\n", c.Label, c.Plus, c.Minus, FormatValue(c.Amplitude))
		case *circuit.VCVS:
			fmt.Fprintf(&b, "%s %s %s %s %s %s\n", c.Label, c.OutP, c.OutM, c.CtrlP, c.CtrlM, FormatValue(c.Gain))
		case *circuit.VCCS:
			fmt.Fprintf(&b, "%s %s %s %s %s %s\n", c.Label, c.OutP, c.OutM, c.CtrlP, c.CtrlM, FormatValue(c.Gm))
		case *circuit.CCVS:
			fmt.Fprintf(&b, "%s %s %s %s %s\n", c.Label, c.OutP, c.OutM, c.CtrlVSource, FormatValue(c.Rt))
		case *circuit.CCCS:
			fmt.Fprintf(&b, "%s %s %s %s %s\n", c.Label, c.OutP, c.OutM, c.CtrlVSource, FormatValue(c.Gain))
		case *circuit.Opamp:
			if c.Model == circuit.ModelSinglePole {
				fmt.Fprintf(&b, "%s %s %s %s a0=%s pole=%s\n", c.Label, c.InP, c.InN, c.Out,
					FormatValue(c.A0), FormatValue(c.PoleHz))
			} else {
				fmt.Fprintf(&b, "%s %s %s %s\n", c.Label, c.InP, c.InN, c.Out)
			}
		default:
			return fmt.Errorf("spice: cannot serialize %T", comp)
		}
	}
	if ckt.Input != "" {
		fmt.Fprintf(&b, ".input %s\n", ckt.Input)
	}
	if ckt.Output != "" {
		fmt.Fprintf(&b, ".output %s\n", ckt.Output)
	}
	if len(chain) > 0 {
		fmt.Fprintf(&b, ".chain %s\n", strings.Join(chain, " "))
	}
	b.WriteString(".end\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// KnownSuffixes lists the supported scale suffixes, sorted — exposed for
// documentation/tests.
func KnownSuffixes() []string {
	s := []string{"f", "p", "n", "u", "m", "k", "meg", "g", "t"}
	sort.Strings(s)
	return s
}
