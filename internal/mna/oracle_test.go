package mna

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"analogdft/internal/circuit"
	"analogdft/internal/circuits"
	"analogdft/internal/dft"
	"analogdft/internal/netgen"
	"analogdft/internal/numeric"
	"analogdft/internal/spice"
)

// denseRef is the dense reference the CSR path is held to: the same
// stampAll walk a System's build runs, written into n×n numeric.Matrix
// stamp caches, assembled per point as the fused scale-add
// M = G + jω·C plus the single-pole constraint rows, and factored by the
// dense LU. It is the storage scheme the package ran before CSR became
// its only layout, kept here as an oracle.
type denseRef struct {
	sys     *System
	g, c    *numeric.Matrix
	rhs0    []complex128
	dynamic []*circuit.Opamp
}

func newDenseRef(tb testing.TB, sys *System) *denseRef {
	tb.Helper()
	d := &denseRef{
		sys:  sys,
		g:    numeric.NewMatrix(sys.n, sys.n),
		c:    numeric.NewMatrix(sys.n, sys.n),
		rhs0: make([]complex128, sys.n),
	}
	dynamic, err := sys.stampAll(d.g, d.c, d.rhs0)
	if err != nil {
		tb.Fatal(err)
	}
	d.dynamic = dynamic
	return d
}

// assemble writes the dense system at freqHz into m (n×n) and rhs.
func (d *denseRef) assemble(freqHz float64, m *numeric.Matrix, rhs []complex128) {
	jw := complex(0, 2*math.Pi*freqHz)
	for i, gv := range d.g.Data {
		m.Data[i] = gv + jw*d.c.Data[i]
	}
	copy(rhs, d.rhs0)
	for _, op := range d.dynamic {
		d.sys.stampOpampRow(m, op, jw)
	}
}

// solve returns the full unknown vector at freqHz via numeric.Solve.
func (d *denseRef) solve(freqHz float64) ([]complex128, error) {
	m := numeric.NewMatrix(d.sys.n, d.sys.n)
	rhs := make([]complex128, d.sys.n)
	d.assemble(freqHz, m, rhs)
	return numeric.Solve(m, rhs)
}

// patchBoth patches component name to v on the System (SetValue) and on
// the dense reference. The reference adds the component's rank-1
// description ΔM = s·u·vᵀ (RankOneDeltaInto) entry by entry. That is not
// an independent description: SetValue, RankOneDeltaInto and the build
// all read the one value stamp (valueStamp). What this holds to the bit
// is the CSR lowering — each delta lands in the slot the dense
// reference adds it to.
func patchBoth(t *testing.T, sys *System, ref *denseRef, name string, v float64) {
	t.Helper()
	var d RankOne
	if err := sys.RankOneDeltaInto(name, v, &d); err != nil {
		t.Fatalf("RankOneDeltaInto(%s): %v", name, err)
	}
	m, coef := ref.g, d.GCoef
	if d.onC {
		m, coef = ref.c, d.CCoef
	}
	for ki, i := range d.UIdx {
		for kj, j := range d.VIdx {
			m.Add(i, j, coef*d.UVal[ki]*d.VVal[kj])
		}
	}
	if err := sys.SetValue(name, v); err != nil {
		t.Fatalf("SetValue(%s): %v", name, err)
	}
}

func sameC128(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// requireSameBits fails unless the CSR and dense outcomes agree: both
// singular, or every unknown equal to the bit. It reports whether the
// point solved.
func requireSameBits(t *testing.T, stage string, f float64, got []complex128, gotErr error, want []complex128, wantErr error) bool {
	t.Helper()
	if wantErr != nil || gotErr != nil {
		if !errors.Is(wantErr, numeric.ErrSingular) || !errors.Is(gotErr, numeric.ErrSingular) {
			t.Fatalf("%s at %g Hz: csr err %v, dense err %v", stage, f, gotErr, wantErr)
		}
		return false
	}
	for i := range want {
		if !sameC128(got[i], want[i]) {
			t.Fatalf("%s at %g Hz: x[%d] csr %v, dense %v", stage, f, i, got[i], want[i])
		}
	}
	return true
}

var oracleGrid = []float64{0, 1, 97.3, 1e3, 9.87e3, 123456.7, 1e6}

// oracleCase is one circuit of the bit-identity corpus, with the
// components the sweeper test patches (a resistor, a capacitor, then the
// resistor again so two patches compose).
type oracleCase struct {
	name  string
	ckt   *circuit.Circuit
	patch []string
}

// oracleCorpus is every circuit the CSR path must reproduce bit for bit:
// the paper biquad, a cascade and a single-pole stage whose per-point
// rows exercise the pattern's dynamic slots; every configuration of every
// library bench (the n=6–7 single-opamp benches included); the two
// single-opamp benchmark decks; and every configuration of netgen seeds
// 1–5.
func oracleCorpus(t *testing.T) []oracleCase {
	t.Helper()
	cas, err := circuits.BiquadCascade(3)
	if err != nil {
		t.Fatal(err)
	}
	sp := circuit.New("singlepole")
	sp.V("V1", "in", "0", 1)
	sp.R("R1", "in", "sum", 1e3)
	sp.R("R2", "sum", "out", 10e3)
	sp.Cap("C1", "sum", "out", 1e-9)
	sp.OASinglePole("OP1", "0", "sum", "out", 1e5, 10)
	sp.R("RL", "out", "mid", 2e3)
	sp.Cap("C2", "mid", "0", 10e-9)
	sp.L("L1", "mid", "0", 1e-3)
	corpus := []oracleCase{
		{"biquad", circuits.PaperBiquad().Circuit, []string{"R1", "C1", "R1"}},
		{"cascade", cas.Circuit, []string{"R1_1", "C1_1", "R1_1"}},
		{"singlepole", sp, []string{"R1", "C1", "R1"}},
	}

	for _, om := range oracleModified(t) {
		for _, cfg := range om.m.Configurations(true) {
			c, err := om.m.Configure(cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", om.name, cfg.Label(), err)
			}
			driven, err := Driven(c)
			if err != nil {
				t.Fatalf("%s %s: %v", om.name, cfg.Label(), err)
			}
			corpus = append(corpus, oracleCase{om.name + "/" + cfg.Label(), driven, firstRC(driven)})
		}
	}
	return corpus
}

// namedModified is one DFT-modified circuit of the corpus.
type namedModified struct {
	name string
	m    *dft.Modified
}

// oracleModified returns the modified circuits whose every configuration
// the corpus holds: every library bench (the n=6–7 single-opamp benches
// included), the two single-opamp benchmark decks and netgen seeds 1–5.
func oracleModified(t *testing.T) []namedModified {
	t.Helper()
	var out []namedModified
	add := func(name string, ckt *circuit.Circuit, chain []string) {
		m, err := dft.Apply(ckt, chain)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, namedModified{name, m})
	}
	lib := circuits.Library()
	names := make([]string, 0, len(lib))
	for name := range lib {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		add(name, lib[name].Circuit, lib[name].Chain)
	}
	for _, deck := range []string{"mfb-bandpass", "sallen-key-hp"} {
		fh, err := os.Open(filepath.Join("..", "..", "bench", "decks", deck+".cir"))
		if err != nil {
			t.Fatal(err)
		}
		d, err := spice.Parse(fh)
		fh.Close()
		if err != nil {
			t.Fatalf("%s: %v", deck, err)
		}
		add("deck="+deck, d.Circuit, d.Chain)
	}
	for seed := int64(1); seed <= 5; seed++ {
		b, err := netgen.Random(netgen.Spec{Stages: 2, Seed: seed, AllowBiquad: seed%3 == 0})
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("netgen-seed=%d", seed), b.Circuit, b.Chain)
	}
	return out
}

// firstRC names the first resistor and first capacitor of ckt, then the
// resistor again.
func firstRC(ckt *circuit.Circuit) []string {
	var r, c string
	for _, comp := range ckt.Components() {
		switch comp.(type) {
		case *circuit.Resistor:
			if r == "" {
				r = comp.Name()
			}
		case *circuit.Capacitor:
			if c == "" {
				c = comp.Name()
			}
		}
	}
	var out []string
	for _, name := range []string{r, c, r} {
		if name != "" {
			out = append(out, name)
		}
	}
	return out
}

// patchValue is the value patch k moves a component to: distinct per
// step, so the repeated resistor patch composes rather than repeats.
func patchValue(ckt *circuit.Circuit, name string, k int) float64 {
	comp, _ := ckt.Component(name)
	scale := []float64{1.37, 0.71, 2.9}[k%3]
	switch c := comp.(type) {
	case *circuit.Resistor:
		return c.Ohms * scale
	case *circuit.Capacitor:
		return c.Farads * scale
	}
	panic("mna: patchValue on " + name)
}

// TestSparseSolveMatchesDenseBitExact holds SolveAt, on every circuit
// of the corpus, to the dense reference bit for bit on every unknown
// (and to the same singular verdict), because the CSR factorization
// replays the dense elimination operation for operation.
func TestSparseSolveMatchesDenseBitExact(t *testing.T) {
	for _, tc := range oracleCorpus(t) {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := NewSystem(tc.ckt)
			if err != nil {
				t.Fatal(err)
			}
			ref := newDenseRef(t, sys)
			solved := 0
			for _, f := range oracleGrid {
				want, wantErr := ref.solve(f)
				sol, err := sys.SolveAt(f)
				var got []complex128
				if err == nil {
					got = make([]complex128, sys.n)
					for i, node := range sys.NodeNames() {
						got[i], _ = sol.Voltage(node)
					}
					for name, br := range sys.branchOf {
						got[br], _ = sol.Current(name)
					}
				}
				if requireSameBits(t, "SolveAt", f, got, err, want, wantErr) {
					solved++
				}
			}
			if solved == 0 {
				t.Fatal("every grid point singular: nothing compared")
			}
		})
	}
}

// TestSparseSweeperMatchesDenseBitExact covers the workspace-reusing
// sweep path on the whole corpus: nominal, after composed SetValue
// patches — whose slot-lowered writes must land on exactly the entries
// the dense reference patches — and after Reset, which must restore the
// value arrays of a freshly built system bit for bit.
func TestSparseSweeperMatchesDenseBitExact(t *testing.T) {
	for _, tc := range oracleCorpus(t) {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := NewSystem(tc.ckt)
			if err != nil {
				t.Fatal(err)
			}
			sw, err := sys.NewSweeper(sys.NodeNames()[0])
			if err != nil {
				t.Fatal(err)
			}
			ref := newDenseRef(t, sys)
			check := func(stage string) {
				t.Helper()
				solved := 0
				for _, f := range oracleGrid {
					want, wantErr := ref.solve(f)
					_, err := sw.VoltageAt(f)
					if requireSameBits(t, stage, f, sw.ws.RHS, err, want, wantErr) {
						solved++
					}
				}
				if solved == 0 {
					t.Fatalf("%s: every grid point singular: nothing compared", stage)
				}
				requireSameStamps(t, stage, sys, ref)
			}
			check("nominal")
			for k, name := range tc.patch {
				patchBoth(t, sys, ref, name, patchValue(tc.ckt, name, k))
			}
			check("patched")
			sys.Reset()
			ref = newDenseRef(t, sys)
			check("reset")
			fresh, err := NewSystem(tc.ckt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fresh.ensureStamps(); err != nil {
				t.Fatal(err)
			}
			for i := range fresh.gval {
				if !sameC128(fresh.gval[i], sys.gval[i]) || !sameC128(fresh.cval[i], sys.cval[i]) {
					t.Fatalf("slot %d drifted after Reset", i)
				}
			}
		})
	}
}

// requireSameStamps scatters the CSR stamp values into dense matrices
// and requires them to equal the reference's stamp caches bit for bit.
func requireSameStamps(t *testing.T, stage string, sys *System, ref *denseRef) {
	t.Helper()
	m := numeric.NewMatrix(sys.n, sys.n)
	for _, p := range []struct {
		name string
		vals []complex128
		want *numeric.Matrix
	}{{"G", sys.gval, ref.g}, {"C", sys.cval, ref.c}} {
		if err := sys.pat.ScatterInto(m, p.vals); err != nil {
			t.Fatal(err)
		}
		for i := range m.Data {
			if !sameC128(m.Data[i], p.want.Data[i]) {
				t.Fatalf("%s: %s[%d,%d] csr %v, dense %v", stage, p.name, i/sys.n, i%sys.n, m.Data[i], p.want.Data[i])
			}
		}
	}
}

// TestSwitchedSweeperMatchesDenseBitExact extends the dense oracle to
// the in-place configuration switch: on every modified circuit of the
// corpus, one fork of the switchable functional system is switched
// through every configuration in turn, and at each its sweeper must
// match the dense reference of the switched stamps bit for bit, nominal,
// under composed SetValue patches and after Reset — whose snapshots
// must leave the switch in place.
func TestSwitchedSweeperMatchesDenseBitExact(t *testing.T) {
	for _, om := range oracleModified(t) {
		t.Run(om.name, func(t *testing.T) {
			base := switchableFunctional(t, om.m)
			sys, err := base.Fork()
			if err != nil {
				t.Fatal(err)
			}
			sw, err := sys.NewSweeper(sys.NodeNames()[0])
			if err != nil {
				t.Fatal(err)
			}
			patch := firstRC(sys.ckt)
			for _, cfg := range om.m.Configurations(true) {
				switchTo(t, sys, om.m, cfg)
				ref := newDenseRef(t, sys)
				check := func(stage string) {
					t.Helper()
					stage = cfg.Label() + " " + stage
					solved := 0
					for _, f := range oracleGrid {
						want, wantErr := ref.solve(f)
						_, err := sw.VoltageAt(f)
						if requireSameBits(t, stage, f, sw.ws.RHS, err, want, wantErr) {
							solved++
						}
					}
					if solved == 0 {
						t.Fatalf("%s: every grid point singular: nothing compared", stage)
					}
					requireSameStamps(t, stage, sys, ref)
				}
				check("nominal")
				for k, name := range patch {
					patchBoth(t, sys, ref, name, patchValue(sys.ckt, name, k))
				}
				check("patched")
				sys.Reset()
				ref = newDenseRef(t, sys)
				check("reset")
			}
		})
	}
}
