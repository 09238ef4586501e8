package spice

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"analogdft/internal/circuit"
	"analogdft/internal/mna"
)

func TestParseValue(t *testing.T) {
	cases := map[string]float64{
		"10":     10,
		"10.5":   10.5,
		"-3":     -3,
		"1e3":    1000,
		"1E-9":   1e-9,
		"10k":    10e3,
		"4.7K":   4.7e3,
		"1meg":   1e6,
		"2MEG":   2e6,
		"100n":   100e-9,
		"2.2u":   2.2e-6,
		"1m":     1e-3,
		"3p":     3e-12,
		"5f":     5e-15,
		"2g":     2e9,
		"1t":     1e12,
		"1kOhm":  1e3,
		"100nF":  100e-9,
		"15.9k":  15.9e3,
		"1V":     1,
		"50Hz":   50,
		"10ohms": 10,
	}
	for in, want := range cases {
		got, err := ParseValue(in)
		if err != nil {
			t.Errorf("ParseValue(%q): %v", in, err)
			continue
		}
		if math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Errorf("ParseValue(%q) = %g, want %g", in, got, want)
		}
	}
	for _, bad := range []string{"", "abc", "1x", "e3", "1e", "--3"} {
		if _, err := ParseValue(bad); !errors.Is(err, ErrSyntax) {
			t.Errorf("ParseValue(%q): err = %v, want ErrSyntax", bad, err)
		}
	}
}

func TestFormatValueRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1, 15.9e3, 1e-9, 2.2e-6, 4.7e3, 1e6, 3.3e9, 5e-15, 0.12} {
		s := FormatValue(v)
		got, err := ParseValue(s)
		if err != nil {
			t.Errorf("FormatValue(%g) = %q unparseable: %v", v, s, err)
			continue
		}
		if v == 0 {
			if got != 0 {
				t.Errorf("zero round trip: %g", got)
			}
			continue
		}
		if math.Abs(got-v) > 1e-6*math.Abs(v) {
			t.Errorf("round trip %g -> %q -> %g", v, s, got)
		}
	}
}

const biquadDeck = `
* Tow-Thomas biquad
.title tt-biquad
R1 in a 15.9k
R2 v1 a 31.8k       ; Q resistor
C1 v1 a 1n
R4 v3 a 15.9k
OA1 0 a v1
R5 v1 b 15.9k
C2 v2 b 1n
OA2 0 b v2
R6 v2 c 15.9k
R3 v3 c 15.9k
OA3 0 c v3
.input in
.output v3
.chain OA1 OA2 OA3
.end
`

func TestParseBiquadDeck(t *testing.T) {
	d, err := ParseString(biquadDeck)
	if err != nil {
		t.Fatal(err)
	}
	if d.Circuit.Name != "tt-biquad" {
		t.Errorf("title = %q", d.Circuit.Name)
	}
	if d.Circuit.Input != "in" || d.Circuit.Output != "v3" {
		t.Errorf("io = %q %q", d.Circuit.Input, d.Circuit.Output)
	}
	if len(d.Chain) != 3 || d.Chain[0] != "OA1" {
		t.Errorf("chain = %v", d.Chain)
	}
	if err := d.Circuit.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Circuit.Opamps()); got != 3 {
		t.Errorf("opamps = %d", got)
	}
	r2, err := d.Circuit.Valued("R2")
	if err != nil || math.Abs(r2.Value()-31.8e3) > 1 {
		t.Errorf("R2 = %v %v", r2, err)
	}
	// The parsed circuit actually simulates: DC gain = −R4/R1 = −1.
	h, err := mna.TransferAt(d.Circuit, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(real(h)+1) > 1e-3 {
		t.Errorf("parsed biquad H(0) = %v", h)
	}
}

func TestParseAllElementKinds(t *testing.T) {
	deck := `
V1 in 0 1
I1 0 x 1m
R1 in x 1k
L1 x 0 10m
C1 x 0 1n
E1 y 0 x 0 2
R2 y 0 1k
G1 0 z x 0 1m
R3 z 0 1k
OA1 0 x w a0=1e5 pole=10
R4 x w 1k
.input in
.output y
`
	d, err := ParseString(deck)
	if err != nil {
		t.Fatal(err)
	}
	comps := d.Circuit.Components()
	if len(comps) != 11 {
		t.Fatalf("components = %d", len(comps))
	}
	op, _ := d.Circuit.Component("OA1")
	oa := op.(*circuit.Opamp)
	if oa.Model != circuit.ModelSinglePole || oa.A0 != 1e5 || oa.PoleHz != 10 {
		t.Errorf("opamp params = %+v", oa)
	}
}

func TestParseComments(t *testing.T) {
	d, err := ParseString("* c\nR1 a 0 1k ; trailing\n\n   \nR2 a 0 2k\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Circuit.Components()) != 2 {
		t.Fatal("comment handling")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"R1 a 0",               // missing value
		"R1 a 0 1k extra",      // too many fields
		"X1 a 0 1k",            // unknown element
		"E1 a 0 b 1",           // VCVS missing node
		"OA1 a b",              // opamp missing out
		"OA1 a b c foo=1",      // unknown opamp param
		"OA1 a b c a0",         // malformed param
		".input",               // missing node
		".output a b",          // too many
		".chain",               // empty
		".title",               // missing
		".wibble x",            // unknown directive
		"R1 a 0 1k\nR1 b 0 2k", // duplicate name
		"C1 a 0 zz",            // bad value
	}
	for _, deck := range cases {
		if _, err := ParseString(deck); err == nil {
			t.Errorf("deck %q accepted", deck)
		}
	}
}

// TestParseLineLimit pins the 1 MiB line limit: a 100 KiB line parses
// (here an element with a long trailing comment) and a line over the
// limit fails with ErrSyntax naming its line.
func TestParseLineLimit(t *testing.T) {
	long := "R2 a 0 2k ;" + strings.Repeat("x", 100<<10) + "\n"
	d, err := ParseString("R1 a 0 1k\n" + long + "R3 a 0 3k\n")
	if err != nil {
		t.Fatalf("100 KiB line: %v", err)
	}
	if got := len(d.Circuit.Components()); got != 3 {
		t.Fatalf("100 KiB line: %d components, want 3", got)
	}
	_, err = ParseString("R1 a 0 1k\n* " + strings.Repeat("x", maxLine) + "\nR2 a 0 2k\n")
	if want := "spice: syntax error: line 2: bufio.Scanner: token too long"; !errors.Is(err, ErrSyntax) || err.Error() != want {
		t.Fatalf("line over 1 MiB: err = %v, want %q", err, want)
	}
}

func TestParseErrorCarriesLineNumber(t *testing.T) {
	_, err := ParseString("R1 a 0 1k\nR2 b 0 oops\n")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line 2", err)
	}
}

func TestWriteRoundTrip(t *testing.T) {
	d, err := ParseString(biquadDeck)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, d.Circuit, d.Chain); err != nil {
		t.Fatal(err)
	}
	d2, err := ParseString(sb.String())
	if err != nil {
		t.Fatalf("re-parse: %v\ndeck:\n%s", err, sb.String())
	}
	if len(d2.Circuit.Components()) != len(d.Circuit.Components()) {
		t.Fatal("component count changed in round trip")
	}
	if d2.Circuit.Input != d.Circuit.Input || d2.Circuit.Output != d.Circuit.Output {
		t.Fatal("io changed")
	}
	if len(d2.Chain) != 3 {
		t.Fatal("chain lost")
	}
	// Transfer functions agree.
	h1, err := mna.TransferAt(d.Circuit, 5e3)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := mna.TransferAt(d2.Circuit, 5e3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(real(h1-h2)) > 1e-6 || math.Abs(imag(h1-h2)) > 1e-6 {
		t.Fatalf("round-trip transfer mismatch: %v vs %v", h1, h2)
	}
}

func TestWriteAllKinds(t *testing.T) {
	c := circuit.New("w")
	c.V("V1", "in", "0", 1)
	c.I("I1", "0", "x", 1e-3)
	c.R("R1", "in", "x", 1e3)
	c.L("L1", "x", "0", 1e-3)
	c.Cap("C1", "x", "0", 1e-9)
	c.E("E1", "y", "0", "x", "0", 2)
	c.G("G1", "0", "y", "x", "0", 1e-3)
	c.OA("OA1", "0", "x", "z")
	c.OASinglePole("OA2", "0", "z", "y", 1e5, 10)
	var sb strings.Builder
	if err := Write(&sb, c, nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"V1", "I1", "R1", "L1", "C1", "E1", "G1", "OA1", "a0=100k"} {
		if !strings.Contains(out, want) {
			t.Errorf("deck missing %q:\n%s", want, out)
		}
	}
	if _, err := ParseString(out); err != nil {
		t.Fatalf("re-parse: %v", err)
	}
}

func TestKnownSuffixes(t *testing.T) {
	s := KnownSuffixes()
	if len(s) != 9 {
		t.Fatalf("suffixes = %v", s)
	}
}

// Property: FormatValue → ParseValue round-trips within 1e-6 relative for
// positive magnitudes across the supported range.
func TestValueRoundTripProperty(t *testing.T) {
	f := func(mant uint16, expRaw int8) bool {
		exp := int(expRaw)%25 - 12 // 1e-12 .. 1e12
		v := (1 + float64(mant)/65536*8) * math.Pow(10, float64(exp))
		s := FormatValue(v)
		got, err := ParseValue(s)
		if err != nil {
			return false
		}
		return math.Abs(got-v) <= 1e-5*math.Abs(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParseCurrentControlled(t *testing.T) {
	deck := `
V1 a 0 1
R1 a 0 1k
H1 b 0 V1 50
R2 b 0 1k
F1 c 0 V1 2
R3 c 0 1k
.input a
.output b
`
	d, err := ParseString(deck)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := d.Circuit.Component("H1")
	ccvs := h.(*circuit.CCVS)
	if ccvs.CtrlVSource != "V1" || ccvs.Rt != 50 {
		t.Fatalf("H1 = %+v", ccvs)
	}
	f, _ := d.Circuit.Component("F1")
	cccs := f.(*circuit.CCCS)
	if cccs.CtrlVSource != "V1" || cccs.Gain != 2 {
		t.Fatalf("F1 = %+v", cccs)
	}
	// Round trip.
	var sb strings.Builder
	if err := Write(&sb, d.Circuit, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseString(sb.String()); err != nil {
		t.Fatalf("re-parse: %v\n%s", err, sb.String())
	}
	// The parsed circuit solves with its own source (no extra stimulus).
	sys, err := mna.NewSystem(d.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := sys.SolveAt(100)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := sol.Voltage("b")
	if err != nil {
		t.Fatal(err)
	}
	// I(V1) = −1 mA ⇒ V(b) = 50·(−1 mA) = −0.05 V.
	if real(vb) > -0.049 || real(vb) < -0.051 {
		t.Fatalf("V(b) = %v, want −0.05", vb)
	}
}

func TestParseCurrentControlledErrors(t *testing.T) {
	if _, err := ParseString("H1 b 0 V1"); err == nil {
		t.Error("H missing value accepted")
	}
	if _, err := ParseString("F1 b 0 V1 x2"); err == nil {
		t.Error("F bad value accepted")
	}
}
