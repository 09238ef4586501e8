package mna

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"analogdft/internal/circuit"
	"analogdft/internal/circuits"
	"analogdft/internal/dft"
	"analogdft/internal/numeric"
)

// switchBenches are the circuits whose configurations the in-place
// opamp switch must reproduce: the paper biquad, the six-opamp lowpass
// and the paper biquad with single-pole opamps, whose constraint rows
// are stamped per point.
func switchBenches(t *testing.T) map[string]*dft.Modified {
	t.Helper()
	ms6, err := circuits.MultiStageLowpass(6, 10e3)
	if err != nil {
		t.Fatal(err)
	}
	biquad := circuits.PaperBiquad()
	sp := biquad.Circuit.Clone()
	for _, op := range sp.Opamps() {
		op.Model, op.A0, op.PoleHz = circuit.ModelSinglePole, 1e5, 10
	}
	out := map[string]*dft.Modified{}
	for name, b := range map[string]*circuits.Bench{
		"paper-biquad":             biquad,
		"multistage-lp-6":          ms6,
		"paper-biquad-single-pole": {Circuit: sp, Chain: biquad.Chain},
	} {
		m, err := dft.Apply(b.Circuit, b.Chain)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = m
	}
	return out
}

// switchableFunctional returns the driven functional configuration of m
// as a system whose chain opamps may switch, with its stamps built.
func switchableFunctional(t *testing.T, m *dft.Modified) *System {
	t.Helper()
	functional, err := m.Configure(dft.Configuration{Index: 0, N: m.N()})
	if err != nil {
		t.Fatal(err)
	}
	driven, err := Driven(functional)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(driven)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Switchable(m.Chain); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ensureStamps(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// switchTo puts every chain opamp of sys in the mode cfg gives it.
func switchTo(t *testing.T, sys *System, m *dft.Modified, cfg dft.Configuration) {
	t.Helper()
	for a, name := range m.Chain {
		mode := circuit.ModeNormal
		if cfg.Follower(a) {
			mode = circuit.ModeFollower
		}
		if err := sys.SetOpampMode(name, mode); err != nil {
			t.Fatalf("%s %s: %v", cfg.Label(), name, err)
		}
	}
}

// assembledDense assembles s at freqHz and scatters the matrix into a
// dense n×n one, so systems under different patterns compare entry by
// entry: a slot one pattern has and the other lacks must hold +0.
func assembledDense(t *testing.T, s *System, freqHz float64) (*numeric.Matrix, []complex128) {
	t.Helper()
	pat, err := s.Pattern()
	if err != nil {
		t.Fatal(err)
	}
	mv, rhs := make([]complex128, pat.NNZ()), make([]complex128, s.n)
	var box numeric.CSRValues
	if _, err := s.assembleVals(freqHz, mv, rhs, &box); err != nil {
		t.Fatal(err)
	}
	m := numeric.NewMatrix(s.n, s.n)
	if err := pat.ScatterInto(m, mv); err != nil {
		t.Fatal(err)
	}
	return m, rhs
}

// TestSwitchedSystemMatchesConfigured holds the in-place configuration
// switch to the configured clone, in the manner of TestStampBitsPinned:
// for every configuration of every switchBenches circuit, a fork of the
// switchable functional system with its chain opamps switched must
// assemble the configured clone's G, C and excitation — the same bits
// at every coordinate, at every grid point — and its sweeper must
// return the clone's VoltageAt bits and singular verdicts. Switching
// every opamp back must restore the functional system's stamps bit for
// bit.
func TestSwitchedSystemMatchesConfigured(t *testing.T) {
	grid := append([]float64{0}, numeric.LogSpace(10, 1e6, 25)...)
	for name, m := range switchBenches(t) {
		t.Run(name, func(t *testing.T) {
			base := switchableFunctional(t, m)
			sys, err := base.Fork()
			if err != nil {
				t.Fatal(err)
			}
			out := circuit.CanonicalNode(base.ckt.Output)
			sw, err := sys.NewSweeper(out)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range m.Configurations(true) {
				switchTo(t, sys, m, cfg)
				ckt, err := m.Configure(cfg)
				if err != nil {
					t.Fatal(err)
				}
				driven, err := Driven(ckt)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := NewSystem(driven)
				if err != nil {
					t.Fatal(err)
				}
				refSw, err := ref.NewSweeper(out)
				if err != nil {
					t.Fatal(err)
				}
				solved := 0
				for _, f := range grid {
					got, gotRHS := assembledDense(t, sys, f)
					want, wantRHS := assembledDense(t, ref, f)
					for i := range want.Data {
						if !sameC128(got.Data[i], want.Data[i]) {
							t.Fatalf("%s at %g Hz: M[%d,%d] switched %v, configured %v", cfg.Label(), f, i/sys.n, i%sys.n, got.Data[i], want.Data[i])
						}
					}
					for i := range wantRHS {
						if !sameC128(gotRHS[i], wantRHS[i]) {
							t.Fatalf("%s at %g Hz: rhs[%d] switched %v, configured %v", cfg.Label(), f, i, gotRHS[i], wantRHS[i])
						}
					}
					v, err := sw.VoltageAt(f)
					rv, rerr := refSw.VoltageAt(f)
					if err != nil || rerr != nil {
						if !errors.Is(err, numeric.ErrSingular) || !errors.Is(rerr, numeric.ErrSingular) {
							t.Fatalf("%s at %g Hz: switched err %v, configured err %v", cfg.Label(), f, err, rerr)
						}
						continue
					}
					if !sameC128(v, rv) {
						t.Fatalf("%s at %g Hz: V(out) switched %v, configured %v", cfg.Label(), f, v, rv)
					}
					solved++
				}
				if solved == 0 {
					t.Fatalf("%s: every grid point singular: nothing compared", cfg.Label())
				}
			}
			switchTo(t, sys, m, dft.Configuration{Index: 0, N: m.N()})
			if got, want := stampBitsHash(sys), stampBitsHash(base); got != want {
				t.Fatalf("switched back: stamp bits %s, functional %s", got, want)
			}
		})
	}
}

// TestSetOpampModeRefusals pins the switch's guard rails: only opamps
// named switchable before the build may switch, and a system whose
// stamps are built takes no new names.
func TestSetOpampModeRefusals(t *testing.T) {
	m := switchBenches(t)["paper-biquad"]
	sys := switchableFunctional(t, m)
	if err := sys.Switchable(m.Chain); !errors.Is(err, ErrUnsupported) {
		t.Errorf("Switchable after the build: err = %v, want ErrUnsupported", err)
	}
	if err := sys.SetOpampMode("R1", circuit.ModeFollower); !errors.Is(err, ErrUnsupported) {
		t.Errorf("SetOpampMode on a resistor: err = %v, want ErrUnsupported", err)
	}
	plain, err := NewSystem(sys.ckt)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.SetOpampMode(m.Chain[0], circuit.ModeFollower); !errors.Is(err, ErrUnsupported) {
		t.Errorf("SetOpampMode on a system without switchable opamps: err = %v, want ErrUnsupported", err)
	}
	if err := sys.SetValue("R1", 1234); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Fork(); !errors.Is(err, ErrUnsupported) {
		t.Errorf("Fork of a patched system: err = %v, want ErrUnsupported", err)
	}
}

// TestOpampPatchedSystemMatchesConfigured holds the in-place opamp model
// patch to the faulty configured clone, in the manner of
// TestSwitchedSystemMatchesConfigured: on the paper biquad and the
// six-opamp lowpass with single-pole opamps, a fork of the switchable
// functional system, switched to every configuration and with each
// opamp's A0 and then its pole patched to a hundredth (SetOpampModel),
// must assemble the clone's G + jωC and excitation — that
// configuration's circuit with the opamp's model changed the same way —
// bit for bit at every grid point, and its sweeper must return the
// clone's VoltageAt bits and singular verdicts. Reset must forget the
// patch: the stamp bits and the assembly are the unpatched system's.
// Opamps without a single-pole model take no patch, and a patched
// system no fork.
func TestOpampPatchedSystemMatchesConfigured(t *testing.T) {
	grid := append([]float64{0}, numeric.LogSpace(10, 1e6, 25)...)
	ms6, err := circuits.MultiStageLowpass(6, 10e3)
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string]*circuits.Bench{"paper-biquad": circuits.PaperBiquad(), "multistage-lp-6": ms6} {
		t.Run(name, func(t *testing.T) {
			sp := b.Circuit.Clone()
			for _, op := range sp.Opamps() {
				op.Model, op.A0, op.PoleHz = circuit.ModelSinglePole, 1e5, 10
			}
			m, err := dft.Apply(sp, b.Chain)
			if err != nil {
				t.Fatal(err)
			}
			base := switchableFunctional(t, m)
			sys, err := base.Fork()
			if err != nil {
				t.Fatal(err)
			}
			out := circuit.CanonicalNode(base.ckt.Output)
			sw, err := sys.NewSweeper(out)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range m.Configurations(true) {
				switchTo(t, sys, m, cfg)
				hash := stampBitsHash(sys)
				nominal, _ := assembledDense(t, sys, grid[len(grid)/2])
				for _, op := range sp.Opamps() {
					for _, pole := range []bool{false, true} {
						ckt, err := m.Configure(cfg)
						if err != nil {
							t.Fatal(err)
						}
						comp, _ := ckt.Component(op.Name())
						faulty := comp.(*circuit.Opamp)
						if pole {
							faulty.PoleHz *= 0.01
						} else {
							faulty.A0 *= 0.01
						}
						if err := sys.SetOpampModel(op.Name(), faulty.A0, faulty.PoleHz); err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("%s %s pole=%t", cfg.Label(), op.Name(), pole)
						driven, err := Driven(ckt)
						if err != nil {
							t.Fatal(err)
						}
						ref, err := NewSystem(driven)
						if err != nil {
							t.Fatal(err)
						}
						refSw, err := ref.NewSweeper(out)
						if err != nil {
							t.Fatal(err)
						}
						for _, f := range grid {
							got, gotRHS := assembledDense(t, sys, f)
							want, wantRHS := assembledDense(t, ref, f)
							for i := range want.Data {
								if !sameC128(got.Data[i], want.Data[i]) {
									t.Fatalf("%s at %g Hz: M[%d,%d] patched %v, clone %v", label, f, i/sys.n, i%sys.n, got.Data[i], want.Data[i])
								}
							}
							for i := range wantRHS {
								if !sameC128(gotRHS[i], wantRHS[i]) {
									t.Fatalf("%s at %g Hz: rhs[%d] patched %v, clone %v", label, f, i, gotRHS[i], wantRHS[i])
								}
							}
							v, err := sw.VoltageAt(f)
							rv, rerr := refSw.VoltageAt(f)
							if (err != nil || rerr != nil) && !(errors.Is(err, numeric.ErrSingular) && errors.Is(rerr, numeric.ErrSingular)) {
								t.Fatalf("%s at %g Hz: patched err %v, clone err %v", label, f, err, rerr)
							}
							if err == nil && !sameC128(v, rv) {
								t.Fatalf("%s at %g Hz: V(out) patched %v, clone %v", label, f, v, rv)
							}
						}
						if !sys.Patched() {
							t.Fatalf("%s: the patched system reports no patch", label)
						}
						sys.Reset()
						after, _ := assembledDense(t, sys, grid[len(grid)/2])
						if sys.Patched() || stampBitsHash(sys) != hash || !slices.EqualFunc(after.Data, nominal.Data, sameC128) {
							t.Fatalf("%s: Reset left the patch in place", label)
						}
					}
				}
			}
			ideal := switchableFunctional(t, switchBenches(t)["paper-biquad"])
			if err := ideal.SetOpampModel(m.Chain[0], 1e3, 10); !errors.Is(err, ErrUnsupported) {
				t.Errorf("SetOpampModel on an ideal opamp: err = %v, want ErrUnsupported", err)
			}
			if p := sp.Passives()[0].Name(); !errors.Is(sys.SetOpampModel(p, 1e3, 10), ErrUnsupported) {
				t.Errorf("SetOpampModel on passive %s: want ErrUnsupported", p)
			}
			if err := sys.SetOpampModel(m.Chain[0], 1e5, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Fork(); !errors.Is(err, ErrUnsupported) {
				t.Errorf("Fork of an opamp-patched system: err = %v, want ErrUnsupported", err)
			}
			sys.Reset()
		})
	}
}
