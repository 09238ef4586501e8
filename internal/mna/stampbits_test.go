package mna

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"analogdft/internal/circuit"
	"analogdft/internal/numeric"
)

// stampBitsHash folds the exact bits of the G and C value arrays and the
// excitation into one FNV-64a digest.
func stampBitsHash(s *System) string {
	h := fnv.New64a()
	var b [8]byte
	for _, vals := range [][]complex128{s.gval, s.cval, s.rhs0} {
		for _, v := range vals {
			for _, f := range []float64{real(v), imag(v)} {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
				h.Write(b[:])
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestStampBitsPinned pins the exact bits of the stamp caches after the
// build, after a SetValue on every component kind, and after Reset.
// Beside patchBench it stamps elements whose terminals coincide — a
// self-loop R and C, a VCVS with shorted control, a VCCS with shorted
// output and control, a CCCS with shorted output — so several of one
// component's ±Δ entries land in one slot. Their sum then depends on
// the order of the adds, and the values are chosen so that a different
// order changes the bits.
func TestStampBitsPinned(t *testing.T) {
	ckt := patchBench()
	ckt.R("RS", "a", "a", 1.1)
	ckt.Cap("CS", "a", "a", 1e-7)
	ckt.E("E2", "x", "0", "x", "x", 1.3)
	ckt.R("RX", "x", "0", 1e3)
	ckt.R("RY", "y", "0", 4.7e3)
	ckt.G("G2", "y", "y", "y", "y", 0.7)
	ckt.F("F2", "in", "in", "V1", 1.3)
	sys, err := NewSystem(ckt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ensureStamps(); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"build": "f78b7dca1ea82608",
		"R1":    "f8ad528578f861f3",
		"C1":    "8a593857e56ed1c6",
		"L1":    "4c068dbb854c8b0a",
		"V1":    "e95dba6fca9df652",
		"I1":    "78f4f1953c846522",
		"E1":    "9318da26203c7bdb",
		"G1":    "ee75c19157f3d688",
		"H1":    "da31e9ca566c087f",
		"F1":    "e0baffd16cb4f19b",
		"RS":    "8a08545f075b80f1",
		"CS":    "c0fa2f8db00e8d28",
		"E2":    "a99b104e4712a435",
		"G2":    "a99b104e4712a435",
		"F2":    "a99b104e4712a435",
		"reset": "f78b7dca1ea82608",
	}
	check := func(stage string) {
		t.Helper()
		if got := stampBitsHash(sys); got != want[stage] {
			t.Errorf("%s: stamp bits %s, want %s", stage, got, want[stage])
		}
	}
	check("build")
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"R1", 1.2e3}, {"C1", 12e-9}, {"L1", 0.8e-3}, {"V1", 1.5},
		{"I1", 2e-3}, {"E1", 2.4}, {"G1", 1.2e-4}, {"H1", 60},
		{"F1", 0.4}, {"RS", 0.3}, {"CS", 2.2e-7}, {"E2", 0.15},
		{"G2", 0.15}, {"F2", 0.9},
	} {
		if err := sys.SetValue(p.name, p.v); err != nil {
			t.Fatalf("SetValue(%s): %v", p.name, err)
		}
		check(p.name)
	}
	sys.Reset()
	check("reset")
	t.Run("opamps", testStampBitsOpamps)
}

// assembledBitsHash folds the exact bits of the matrix and excitation
// assembled at freqHz — where single-pole opamp rows are stamped — into
// one FNV-64a digest.
func assembledBitsHash(t *testing.T, s *System, freqHz float64) string {
	t.Helper()
	pat, err := s.Pattern()
	if err != nil {
		t.Fatal(err)
	}
	mv, rhs := make([]complex128, pat.NNZ()), make([]complex128, s.N())
	var box numeric.CSRValues
	if _, err := s.assembleVals(freqHz, mv, rhs, &box); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [8]byte
	for _, vals := range [][]complex128{mv, rhs} {
		for _, v := range vals {
			for _, f := range []float64{real(v), imag(v)} {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
				h.Write(b[:])
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// testStampBitsOpamps, TestStampBitsPinned's opamp half, pins the constraint rows of both
// opamp models in both modes: the ideal rows live in the G cache, the
// single-pole rows are stamped per point, so the digest covers the build
// and one assembled point. Besides ordinary wirings, one opamp of each
// model has every terminal on one node and one follower buffers its own
// output, so a row's entries share a slot and their add order shows.
func testStampBitsOpamps(t *testing.T) {
	ckt := patchBench()
	follower := func(op *circuit.Opamp, testIn string) {
		op.Configurable, op.TestIn, op.Mode = true, testIn, circuit.ModeFollower
	}
	ckt.OA("OI1", "a", "p", "p")
	ckt.R("RP", "p", "0", 2e3)
	follower(ckt.OA("OI2", "b", "q", "q"), "a")
	ckt.R("RQ", "q", "0", 3e3)
	follower(ckt.OA("OI3", "b", "r", "r"), "r")
	ckt.R("RR", "r", "0", 1.5e3)
	ckt.OASinglePole("OS1", "e", "s", "s", 2e5, 7)
	ckt.R("RS1", "s", "0", 1.2e3)
	follower(ckt.OASinglePole("OS2", "g", "u", "u", 1.3e5, 11), "e")
	ckt.R("RU", "u", "0", 2.7e3)
	ckt.OASinglePole("OS3", "w", "w", "w", 3.1e5, 13)
	ckt.R("RW", "w", "0", 1.8e3)
	follower(ckt.OASinglePole("OS4", "h", "x", "x", 0, 0), "x")
	ckt.R("RX", "x", "0", 1e3)
	sys, err := NewSystem(ckt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ensureStamps(); err != nil {
		t.Fatal(err)
	}
	if got, want := stampBitsHash(sys), "a7f6cc6075645ddb"; got != want {
		t.Errorf("build: stamp bits %s, want %s", got, want)
	}
	for _, p := range []struct {
		freqHz float64
		want   string
	}{{0, "1efd39c4cfc46ec9"}, {1.7e3, "729a2c2cab202031"}, {2.9e5, "ae9cadd6f4f0ce4f"}} {
		if got := assembledBitsHash(t, sys, p.freqHz); got != p.want {
			t.Errorf("assembled at %g Hz: bits %s, want %s", p.freqHz, got, p.want)
		}
	}
}
