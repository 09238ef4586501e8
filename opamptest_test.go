package analogdft

import (
	"strings"
	"testing"
)

func TestWithSinglePoleOpamps(t *testing.T) {
	b := PaperBiquad()
	sp := WithSinglePoleOpamps(b, 1e5, 10)
	for _, op := range sp.Circuit.Opamps() {
		if op.Model.String() != "single-pole" || op.A0 != 1e5 || op.PoleHz != 10 {
			t.Fatalf("opamp %s not converted: %+v", op.Name(), op)
		}
	}
	// Original untouched.
	for _, op := range b.Circuit.Opamps() {
		if op.Model.String() != "ideal" {
			t.Fatal("original bench mutated")
		}
	}
	if !strings.Contains(sp.Description, "single-pole") {
		t.Error("description not updated")
	}
	if len(OpampFaults(sp.Circuit, 0.01, 0.1)) != 6 {
		t.Error("opamp fault universe size")
	}
}

// TestRunOpampTest verifies the §3.1 claim structure: the transparent
// configuration detects opamp-internal faults and misses passive faults.
func TestRunOpampTest(t *testing.T) {
	// A0 = 1e5, pole = 10 Hz ⇒ GBW ≈ 1 MHz. Gain drop ×0.01 moves the
	// closed-loop buffer corner to ≈10 kHz; pole drop ×0.01 likewise.
	res, err := RunOpampTest(PaperBiquad(), 1e5, 10, 0.01, 0.01, 0.20, Options{Points: 121})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Faults) != 6 {
		t.Fatalf("faults = %d", len(res.Faults))
	}
	// Every opamp fault is detectable in the transparent configuration.
	for _, e := range res.Transparent.Evals {
		if e.Err != nil {
			t.Fatalf("%s: %v", e.Fault.ID, e.Err)
		}
		if !e.Detectable {
			t.Errorf("opamp fault %s not detectable in transparent config", e.Fault.ID)
		}
	}
	if fc := res.Transparent.FaultCoverage(); fc != 1 {
		t.Errorf("transparent opamp-fault coverage = %g, want 1", fc)
	}
	// No passive fault is detectable in the transparent configuration
	// (the identity function does not involve the passive network).
	for _, e := range res.PassiveInTransparent.Evals {
		if e.Detectable {
			t.Errorf("passive fault %s detectable in transparent config", e.Fault.ID)
		}
	}
	if fc := res.PassiveInTransparent.FaultCoverage(); fc != 0 {
		t.Errorf("transparent passive coverage = %g, want 0", fc)
	}
	// Both transparent rows measure over the one region derived from the
	// transparent circuit.
	if res.PassiveInTransparent.Region != res.Transparent.Region {
		t.Errorf("passive-in-transparent region %+v, transparent region %+v",
			res.PassiveInTransparent.Region, res.Transparent.Region)
	}
}

func TestRunOpampTestNeedsOpamps(t *testing.T) {
	b := &Bench{Circuit: NewCircuit("none"), Chain: nil}
	b.Circuit.R("R1", "in", "out", 1e3)
	b.Circuit.R("R2", "out", "0", 1e3)
	b.Circuit.Input, b.Circuit.Output = "in", "out"
	if _, err := RunOpampTest(b, 1e5, 10, 0.01, 0.01, 0.2, Options{}); err == nil {
		t.Fatal("opamp-less bench accepted")
	}
}
