package dft

import (
	"errors"
	"math/cmplx"
	"strings"
	"testing"
	"testing/quick"

	"analogdft/internal/circuit"
	"analogdft/internal/mna"
)

// cascade3 builds a cascade of three unity-gain inverting amplifiers:
// in → OP1 → OP2 → OP3 → out, overall gain −1.
func cascade3() *circuit.Circuit {
	c := circuit.New("cascade3")
	c.R("R1", "in", "s1", 1e3)
	c.R("R2", "s1", "v1", 1e3)
	c.OA("OP1", "0", "s1", "v1")
	c.R("R3", "v1", "s2", 1e3)
	c.R("R4", "s2", "v2", 1e3)
	c.OA("OP2", "0", "s2", "v2")
	c.R("R5", "v2", "s3", 1e3)
	c.R("R6", "s3", "v3", 1e3)
	c.OA("OP3", "0", "s3", "v3")
	c.Input, c.Output = "in", "v3"
	return c
}

func TestConfigurationBits(t *testing.T) {
	c := Configuration{Index: 5, N: 3} // binary 101: opamps 1 and 3 follower
	if !c.Follower(0) || c.Follower(1) || !c.Follower(2) {
		t.Fatalf("C5 followers wrong: %v %v %v", c.Follower(0), c.Follower(1), c.Follower(2))
	}
	if c.FollowerCount() != 2 {
		t.Fatalf("FollowerCount = %d", c.FollowerCount())
	}
	if c.Follower(-1) || c.Follower(3) {
		t.Fatal("out-of-range Follower must be false")
	}
}

func TestConfigurationVectorMatchesTable1(t *testing.T) {
	// Table 1 of the paper: C0=000 … C7=111 with C1="001", C5="101".
	want := []string{"000", "001", "010", "011", "100", "101", "110", "111"}
	for i, w := range want {
		c := Configuration{Index: i, N: 3}
		if got := c.Vector(); got != w {
			t.Errorf("C%d vector = %q, want %q", i, got, w)
		}
	}
}

func TestConfigurationPredicates(t *testing.T) {
	if !(Configuration{Index: 0, N: 3}).IsFunctional() {
		t.Error("C0 must be functional")
	}
	if (Configuration{Index: 1, N: 3}).IsFunctional() {
		t.Error("C1 must not be functional")
	}
	if !(Configuration{Index: 7, N: 3}).IsTransparent() {
		t.Error("C7 must be transparent")
	}
	if (Configuration{Index: 6, N: 3}).IsTransparent() {
		t.Error("C6 must not be transparent")
	}
	if got := (Configuration{Index: 5, N: 3}).String(); got != "C5(101)" {
		t.Errorf("String = %q", got)
	}
}

func TestApplyAllWiresChain(t *testing.T) {
	m, err := ApplyAll(cascade3())
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 3 || m.NumConfigurations() != 8 {
		t.Fatalf("N=%d configs=%d", m.N(), m.NumConfigurations())
	}
	wantTest := map[string]string{"OP1": "in", "OP2": "v1", "OP3": "v2"}
	for name, tin := range wantTest {
		comp, _ := m.Base.Component(name)
		op := comp.(*circuit.Opamp)
		if !op.Configurable || op.TestIn != tin {
			t.Errorf("%s: configurable=%v testIn=%q, want %q", name, op.Configurable, op.TestIn, tin)
		}
		if op.Mode != circuit.ModeNormal {
			t.Errorf("%s: template mode = %v, want normal", name, op.Mode)
		}
	}
}

func TestApplyDoesNotMutateOriginal(t *testing.T) {
	orig := cascade3()
	if _, err := ApplyAll(orig); err != nil {
		t.Fatal(err)
	}
	for _, op := range orig.Opamps() {
		if op.Configurable || op.TestIn != "" {
			t.Fatalf("original opamp %s was modified", op.Name())
		}
	}
}

func TestApplyErrors(t *testing.T) {
	c := cascade3()
	if _, err := Apply(c, nil); !errors.Is(err, ErrBadChain) {
		t.Errorf("empty chain: %v", err)
	}
	if _, err := Apply(c, []string{"OP1", "OP1"}); !errors.Is(err, ErrBadChain) {
		t.Errorf("duplicate: %v", err)
	}
	if _, err := Apply(c, []string{"OP9"}); !errors.Is(err, ErrBadChain) {
		t.Errorf("unknown: %v", err)
	}
	if _, err := Apply(c, []string{"R1"}); !errors.Is(err, ErrBadChain) {
		t.Errorf("non-opamp: %v", err)
	}
	noOp := circuit.New("x")
	noOp.R("R1", "in", "0", 1)
	noOp.Input, noOp.Output = "in", "in"
	if _, err := ApplyAll(noOp); !errors.Is(err, ErrBadChain) {
		t.Errorf("no opamps: %v", err)
	}
}

func TestConfigurationsEnumeration(t *testing.T) {
	m, _ := ApplyAll(cascade3())
	all := m.Configurations(true)
	if len(all) != 8 {
		t.Fatalf("with transparent: %d", len(all))
	}
	noT := m.Configurations(false)
	if len(noT) != 7 {
		t.Fatalf("without transparent: %d", len(noT))
	}
	for _, c := range noT {
		if c.IsTransparent() {
			t.Fatal("transparent configuration not excluded")
		}
	}
	if _, err := m.Config(8); !errors.Is(err, ErrBadConfig) {
		t.Errorf("out-of-range Config: %v", err)
	}
	c5, err := m.Config(5)
	if err != nil || c5.Index != 5 || c5.N != 3 {
		t.Errorf("Config(5) = %v, %v", c5, err)
	}
}

func TestConfigureSetsModes(t *testing.T) {
	m, _ := ApplyAll(cascade3())
	cfg, _ := m.Config(5) // OP1, OP3 follower
	ckt, err := m.Configure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	modes := map[string]circuit.OpampMode{}
	for _, op := range ckt.Opamps() {
		modes[op.Name()] = op.Mode
	}
	if modes["OP1"] != circuit.ModeFollower || modes["OP2"] != circuit.ModeNormal || modes["OP3"] != circuit.ModeFollower {
		t.Fatalf("modes = %v", modes)
	}
	// The template must stay all-normal.
	for _, op := range m.Base.Opamps() {
		if op.Mode != circuit.ModeNormal {
			t.Fatal("Configure mutated the template")
		}
	}
}

func TestConfigureRejectsForeignConfig(t *testing.T) {
	m, _ := ApplyAll(cascade3())
	if _, err := m.Configure(Configuration{Index: 1, N: 2}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
}

func TestFunctionalConfigurationPreservesTransfer(t *testing.T) {
	orig := cascade3()
	m, _ := ApplyAll(orig)
	c0, _ := m.Config(0)
	ckt, err := m.Configure(c0)
	if err != nil {
		t.Fatal(err)
	}
	h0, err := mna.TransferAt(ckt, 1e3)
	if err != nil {
		t.Fatal(err)
	}
	hOrig, err := mna.TransferAt(orig, 1e3)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(h0-hOrig) > 1e-9 {
		t.Fatalf("functional config H = %v, original H = %v", h0, hOrig)
	}
	if cmplx.Abs(hOrig-(-1)) > 1e-9 {
		t.Fatalf("cascade gain = %v, want −1", hOrig)
	}
}

func TestTransparentConfigurationIsIdentity(t *testing.T) {
	m, _ := ApplyAll(cascade3())
	c7, _ := m.Config(7)
	ckt, err := m.Configure(c7)
	if err != nil {
		t.Fatal(err)
	}
	h, err := mna.TransferAt(ckt, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(h-1) > 1e-9 {
		t.Fatalf("transparent H = %v, want 1", h)
	}
}

func TestMixedConfigurationTransfer(t *testing.T) {
	// C1 (only OP1 follower): OP1 passes the input through, OP2 and OP3
	// invert ⇒ overall gain +1.
	m, _ := ApplyAll(cascade3())
	c1, _ := m.Config(1)
	ckt, _ := m.Configure(c1)
	h, err := mna.TransferAt(ckt, 100)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(h-1) > 1e-9 {
		t.Fatalf("C1 gain = %v, want +1", h)
	}
	// C2 (only OP2 follower): OP2 buffers v1 ⇒ OP1 and OP3 invert ⇒ +1.
	c2, _ := m.Config(2)
	ckt, _ = m.Configure(c2)
	h, err = mna.TransferAt(ckt, 100)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(h-1) > 1e-9 {
		t.Fatalf("C2 gain = %v, want +1", h)
	}
}

func TestFollowerOpampsMapping(t *testing.T) {
	// Table 3 of the paper.
	m, _ := ApplyAll(cascade3())
	want := map[int][]string{
		0: nil,
		1: {"OP1"},
		2: {"OP2"},
		3: {"OP1", "OP2"},
		4: {"OP3"},
		5: {"OP1", "OP3"},
		6: {"OP2", "OP3"},
		7: {"OP1", "OP2", "OP3"},
	}
	for idx, wantOps := range want {
		cfg, _ := m.Config(idx)
		got := m.FollowerOpamps(cfg)
		if len(got) != len(wantOps) {
			t.Errorf("C%d followers = %v, want %v", idx, got, wantOps)
			continue
		}
		for i := range got {
			if got[i] != wantOps[i] {
				t.Errorf("C%d followers = %v, want %v", idx, got, wantOps)
			}
		}
	}
}

func TestSubChainPartialDFT(t *testing.T) {
	m, _ := ApplyAll(cascade3())
	p, err := m.SubChain([]string{"OP1", "OP2"})
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 2 || p.NumConfigurations() != 4 {
		t.Fatalf("partial N=%d", p.N())
	}
	// OP3 must be back to a classical opamp.
	comp, _ := p.Base.Component("OP3")
	op3 := comp.(*circuit.Opamp)
	if op3.Configurable || op3.TestIn != "" {
		t.Fatal("OP3 still configurable in partial DFT")
	}
	// Table 4 display: configuration 1 is "10-".
	cfg, _ := p.Config(1)
	if got := p.MaskVector(cfg); got != "10-" {
		t.Errorf("MaskVector(C1) = %q, want \"10-\"", got)
	}
	cfg3, _ := p.Config(3)
	if got := p.MaskVector(cfg3); got != "11-" {
		t.Errorf("MaskVector(C3) = %q, want \"11-\"", got)
	}
	// Partial configurations still solve.
	ckt, err := p.Configure(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mna.TransferAt(ckt, 1e3); err != nil {
		t.Fatal(err)
	}
}

func TestSubChainOrderIndependent(t *testing.T) {
	m, _ := ApplyAll(cascade3())
	p, err := m.SubChain([]string{"OP2", "OP1"}) // reversed request
	if err != nil {
		t.Fatal(err)
	}
	if p.Chain[0] != "OP1" || p.Chain[1] != "OP2" {
		t.Fatalf("sub-chain order = %v, want original order", p.Chain)
	}
}

func TestSubChainErrors(t *testing.T) {
	m, _ := ApplyAll(cascade3())
	if _, err := m.SubChain([]string{"OP9"}); !errors.Is(err, ErrBadChain) {
		t.Errorf("unknown: %v", err)
	}
	if _, err := m.SubChain([]string{"OP1", "OP1"}); !errors.Is(err, ErrBadChain) {
		t.Errorf("duplicate: %v", err)
	}
	if _, err := m.SubChain(nil); !errors.Is(err, ErrBadChain) {
		t.Errorf("empty: %v", err)
	}
}

func TestMaskVectorFullChain(t *testing.T) {
	m, _ := ApplyAll(cascade3())
	cfg, _ := m.Config(5)
	if got := m.MaskVector(cfg); got != "101" {
		t.Errorf("MaskVector = %q, want 101", got)
	}
}

func TestAccessBlock(t *testing.T) {
	m, _ := ApplyAll(cascade3())
	// Accessing the middle stage: OP1 and OP3 become followers.
	cfg, err := m.AccessBlock([]string{"OP2"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Index != 5 { // binary 101
		t.Fatalf("access config = %v, want C5", cfg)
	}
	// The emulated circuit isolates the middle inverting stage: overall
	// gain −1 (buffer · inverter · buffer).
	ckt, err := m.Configure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := mna.TransferAt(ckt, 1e3)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(h-(-1)) > 1e-9 {
		t.Fatalf("BUT-access gain = %v, want −1", h)
	}
	// Accessing everything = functional configuration.
	cfg, err = m.AccessBlock([]string{"OP1", "OP2", "OP3"})
	if err != nil || !cfg.IsFunctional() {
		t.Fatalf("full block = %v, %v", cfg, err)
	}
	// Accessing nothing = transparent configuration.
	cfg, err = m.AccessBlock(nil)
	if err != nil || !cfg.IsTransparent() {
		t.Fatalf("empty block = %v, %v", cfg, err)
	}
	if _, err := m.AccessBlock([]string{"OP9"}); !errors.Is(err, ErrBadChain) {
		t.Fatal("unknown block opamp accepted")
	}
}

// Property: FollowerCount equals the number of set bits, MaskVector length
// equals the opamp count, and Configure is idempotent in its effect.
func TestConfigurationProperties(t *testing.T) {
	f := func(idxRaw uint8) bool {
		m, err := ApplyAll(cascade3())
		if err != nil {
			return false
		}
		idx := int(idxRaw) % m.NumConfigurations()
		cfg, err := m.Config(idx)
		if err != nil {
			return false
		}
		// Popcount consistency.
		want := 0
		for i := 0; i < cfg.N; i++ {
			if cfg.Follower(i) {
				want++
			}
		}
		if cfg.FollowerCount() != want {
			return false
		}
		if len(m.MaskVector(cfg)) != len(m.AllOpamps) {
			return false
		}
		a, err := m.Configure(cfg)
		if err != nil {
			return false
		}
		b, err := m.Configure(cfg)
		if err != nil {
			return false
		}
		ha, err1 := mna.TransferAt(a, 777)
		hb, err2 := mna.TransferAt(b, 777)
		if err1 != nil || err2 != nil {
			return false
		}
		return cmplx.Abs(ha-hb) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLiftPrefixSubChain(t *testing.T) {
	m, err := ApplyAll(cascade3())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := m.SubChain([]string{"OP1", "OP2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range sub.Configurations(true) {
		lifted, ok := m.Lift(sub, cfg)
		if !ok {
			t.Fatalf("%v of a prefix sub-chain did not lift", cfg)
		}
		// OP1/OP2 keep their chain positions, so the index is unchanged.
		if lifted != (Configuration{Index: cfg.Index, N: 3}) {
			t.Fatalf("%v lifted to %v", cfg, lifted)
		}
		if got, want := strings.Join(m.FollowerOpamps(lifted), ","), strings.Join(sub.FollowerOpamps(cfg), ","); got != want {
			t.Fatalf("%v: followers %v, want %v", cfg, got, want)
		}
	}
}

func TestLiftRewiredFollower(t *testing.T) {
	m, err := ApplyAll(cascade3())
	if err != nil {
		t.Fatal(err)
	}
	// Dropping OP2 rewires OP3's test input from v2 to v1.
	sub, err := m.SubChain([]string{"OP1", "OP3"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		index, lifted int
		ok            bool
	}{
		{0, 0, true},  // functional: no follower
		{1, 1, true},  // OP1 follows the primary input in both circuits
		{2, 0, false}, // OP3 follows v1 instead of v2
		{3, 0, false},
	}
	for _, c := range cases {
		lifted, ok := m.Lift(sub, Configuration{Index: c.index, N: 2})
		if ok != c.ok || (ok && lifted.Index != c.lifted) {
			t.Errorf("Lift(C%d) = %v, %t; want C%d, %t", c.index, lifted, ok, c.lifted, c.ok)
		}
	}
	if _, ok := m.Lift(sub, Configuration{Index: 1, N: 3}); ok {
		t.Error("a configuration of another chain lifted")
	}
}
