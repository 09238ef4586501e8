package mna

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
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
}
