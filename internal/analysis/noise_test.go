package analysis

import (
	"math"
	"testing"

	"analogdft/internal/circuit"
	"analogdft/internal/numeric"
)

func TestOutputNoiseRCAnalytic(t *testing.T) {
	// RC lowpass: output noise density = 4kTR / (1 + (f/fc)²);
	// integrated over all frequency: kT/C.
	r, cp := 10e3, 1e-9
	fc := 1 / (2 * math.Pi * r * cp)
	ckt := circuit.New("rc")
	ckt.R("R1", "in", "out", r)
	ckt.Cap("C1", "out", "0", cp)
	ckt.Input, ckt.Output = "in", "out"

	grid := numeric.LogSpace(1, 100*fc, 61)
	ns, err := OutputNoise(ckt, grid, 300)
	if err != nil {
		t.Fatal(err)
	}
	const kT = 1.380649e-23 * 300
	for i, f := range grid {
		want := 4 * kT * r / (1 + (f/fc)*(f/fc))
		if math.Abs(ns.Density[i]-want) > 1e-3*want {
			t.Fatalf("density at %g Hz = %g, want %g", f, ns.Density[i], want)
		}
	}
	// Low-frequency spot value in V/√Hz: √(4kTR) ≈ 12.8 nV/√Hz at 10 kΩ.
	if got := ns.TotalAt(0); math.Abs(got-1.28e-8) > 2e-10 {
		t.Fatalf("spot noise = %g, want ≈1.28e-8", got)
	}
	if len(ns.PerResistor["R1"]) != len(grid) {
		t.Fatal("per-resistor contribution missing")
	}
}

func TestIntegratedNoiseApproachesKTOverC(t *testing.T) {
	// ∫ 4kTR/(1+(f/fc)²) df = 4kTR·fc·(π/2) = kT/C. A dense linear grid
	// out to 50·fc captures ≈98.7% of it.
	r, cp := 10e3, 1e-9
	fc := 1 / (2 * math.Pi * r * cp)
	ckt := circuit.New("rc")
	ckt.R("R1", "in", "out", r)
	ckt.Cap("C1", "out", "0", cp)
	ckt.Input, ckt.Output = "in", "out"

	grid := numeric.LinSpace(1, 50*fc, 4001)
	ns, err := OutputNoise(ckt, grid, 300)
	if err != nil {
		t.Fatal(err)
	}
	got := IntegrateNoise(ns)
	want := math.Sqrt(1.380649e-23 * 300 / cp) // ≈ 2.03 µV
	if math.Abs(got-want) > 0.05*want {
		t.Fatalf("integrated noise = %g, want ≈%g (kT/C)", got, want)
	}
	if got >= want {
		t.Fatalf("finite band cannot exceed kT/C: %g vs %g", got, want)
	}
}

func TestOutputNoiseTwoResistors(t *testing.T) {
	// Two equal resistors to ground in parallel at the output: each sees
	// the parallel combination as its transfer impedance. Total density =
	// 2 · 4kT/R · (R/2)² = 2kTR.
	r := 1e3
	ckt := circuit.New("par")
	ckt.R("R1", "out", "0", r)
	ckt.R("R2", "out", "0", r)
	ckt.R("Rin", "in", "out", 1e12) // tie input loosely
	ckt.Input, ckt.Output = "in", "out"
	ns, err := OutputNoise(ckt, []float64{100}, 300)
	if err != nil {
		t.Fatal(err)
	}
	const kT = 1.380649e-23 * 300
	want := 2 * kT * r // ≈ 4kT·(R∥R) with both sources
	// Rin contributes negligibly (1e12 Ω source into ~1 kΩ node).
	if math.Abs(ns.Density[0]-want) > 0.01*want {
		t.Fatalf("density = %g, want %g", ns.Density[0], want)
	}
}

func TestOutputNoiseErrors(t *testing.T) {
	ckt := circuit.New("x")
	ckt.R("R1", "in", "out", 1e3)
	ckt.R("R2", "out", "0", 1e3)
	ckt.Input, ckt.Output = "in", "out"
	if _, err := OutputNoise(ckt, nil, 300); err == nil {
		t.Error("empty grid accepted")
	}
	bad := circuit.New("b")
	bad.R("R1", "in", "out", 0)
	bad.Input, bad.Output = "in", "out"
	if _, err := OutputNoise(bad, []float64{100}, 300); err == nil {
		t.Error("zero resistor accepted")
	}
	noOut := circuit.New("n")
	noOut.R("R1", "in", "x", 1e3)
	if _, err := OutputNoise(noOut, []float64{100}, 300); err == nil {
		t.Error("missing output accepted")
	}
}

// TestOutputNoiseInvalidPoint checks that only a singular point counts
// as a zero contribution: a NaN or negative grid frequency is an error,
// never a silently empty spectrum.
func TestOutputNoiseInvalidPoint(t *testing.T) {
	ckt := circuit.New("rc")
	ckt.R("R1", "in", "out", 10e3)
	ckt.Cap("C1", "out", "0", 1e-9)
	ckt.Input, ckt.Output = "in", "out"
	for _, f := range []float64{math.NaN(), -1} {
		if ns, err := OutputNoise(ckt, []float64{100, f, 1e3}, 300); err == nil {
			t.Errorf("grid point %g: spectrum %v, want an error", f, ns.Density)
		}
	}

	// Node x hangs off the output through capacitors only, so the system
	// is singular at DC and regular everywhere else.
	float := circuit.New("float")
	float.R("R1", "in", "out", 10e3)
	float.Cap("C1", "out", "x", 1e-9)
	float.Cap("C2", "x", "0", 1e-9)
	float.Input, float.Output = "in", "out"
	ns, err := OutputNoise(float, []float64{0, 1e3}, 300)
	if err != nil {
		t.Fatalf("singular DC point: %v", err)
	}
	if ns.Density[0] != 0 || ns.Density[1] <= 0 {
		t.Fatalf("density = %v, want [0, >0]", ns.Density)
	}
}

func TestGroupDelayRC(t *testing.T) {
	// RC lowpass: τg = RC / (1 + (ωRC)²).
	r, cp := 1e3, 100e-9
	tau := r * cp
	ckt := circuit.New("rc")
	ckt.R("R1", "in", "out", r)
	ckt.Cap("C1", "out", "0", cp)
	ckt.Input, ckt.Output = "in", "out"
	resp, err := Sweep(ckt, SweepSpec{StartHz: 10, StopHz: 100e3, Points: 201})
	if err != nil {
		t.Fatal(err)
	}
	gd := GroupDelay(resp)
	for i, f := range resp.Freqs {
		w := 2 * math.Pi * f
		want := tau / (1 + w*w*tau*tau)
		// Central differences on a log grid: allow a few percent.
		if math.Abs(gd[i]-want) > 0.05*want+1e-9 {
			t.Fatalf("τg(%g Hz) = %g, want %g", f, gd[i], want)
		}
	}
}

func TestGroupDelayDegenerate(t *testing.T) {
	r := &Response{Freqs: []float64{100}, H: []complex128{1}, Valid: []bool{true}}
	gd := GroupDelay(r)
	if !math.IsNaN(gd[0]) {
		t.Fatal("single-point group delay should be NaN")
	}
	r2 := &Response{
		Freqs: []float64{100, 200},
		H:     []complex128{1, 1},
		Valid: []bool{true, false},
	}
	gd = GroupDelay(r2)
	if !math.IsNaN(gd[1]) {
		t.Fatal("invalid-point group delay should be NaN")
	}
}
