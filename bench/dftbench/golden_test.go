package main

import (
	"testing"
)

func sampleDigest() digest {
	return digest{
		DetSHA256:       "419bf980658f78ec11eb9f539067036fbe82ac0f55002479fc6ab29f2a29623c",
		Coverage:        0.375,
		OmegaRowSums:    []float64{100, 76.76348547717842},
		OmegaFaultMax:   []float64{0, 58.09128630705394},
		BestRows:        []int{1, 2},
		ChosenOpamps:    []string{"OP1", "OP2"},
		InitialCoverage: 0.125,
		InitialDetected: []string{"fR4"},
	}
}

func TestDigestDiff(t *testing.T) {
	want := sampleDigest()
	if d := want.diff(sampleDigest()); len(d) != 0 {
		t.Fatalf("identical digests differ: %v", d)
	}
	within := sampleDigest()
	within.OmegaRowSums[1] += omegaTol / 2
	if d := want.diff(within); len(d) != 0 {
		t.Errorf("ω-det inside the tolerance flagged: %v", d)
	}
	for name, corrupt := range map[string]func(*digest){
		"det bits":        func(d *digest) { d.DetSHA256 = "00" + d.DetSHA256[2:] },
		"coverage":        func(d *digest) { d.Coverage = 0.5 },
		"omega":           func(d *digest) { d.OmegaFaultMax[1] += 10 * omegaTol },
		"omega length":    func(d *digest) { d.OmegaRowSums = d.OmegaRowSums[:1] },
		"best rows":       func(d *digest) { d.BestRows = []int{1, 3} },
		"chosen opamps":   func(d *digest) { d.ChosenOpamps = []string{"OP1"} },
		"initial detects": func(d *digest) { d.InitialDetected = []string{"fR1"} },
	} {
		got := sampleDigest()
		corrupt(&got)
		if d := want.diff(got); len(d) != 1 {
			t.Errorf("%s: %d differences reported, want 1: %v", name, len(d), d)
		}
	}
}

func TestGoldenCheckUnknownInput(t *testing.T) {
	g := &golden{Workload: "paper-flow", Inputs: map[string]digest{"frac=0.20": sampleDigest()}}
	if d := g.check("frac=0.20", sampleDigest()); len(d) != 0 {
		t.Errorf("matching input flagged: %v", d)
	}
	if d := g.check("frac=0.99", sampleDigest()); len(d) != 1 {
		t.Errorf("input without a golden entry: %v, want one mismatch", d)
	}
}

// TestCommittedGoldensHoldPaperClaims checks the committed paper-flow
// golden against the paper's §2 and §3 results.
func TestCommittedGoldensHoldPaperClaims(t *testing.T) {
	g, err := readGolden("..", "paper-flow")
	if err != nil {
		t.Fatal(err)
	}
	inputs, err := paperFlow.inputs()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Inputs) != len(inputs) {
		t.Fatalf("golden has %d inputs, workload %d", len(g.Inputs), len(inputs))
	}
	for _, in := range inputs {
		d, ok := g.Inputs[in.name]
		if !ok {
			t.Fatalf("no golden for %s", in.name)
		}
		if bad := paperFlow.claims(in, d); len(bad) > 0 {
			t.Errorf("%s: %v", in.name, bad)
		}
	}
	if _, err := readGolden("..", "wide-chain"); err != nil {
		t.Fatal(err)
	}
}
