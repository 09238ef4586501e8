package detect

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"analogdft/internal/analysis"
	"analogdft/internal/circuit"
	"analogdft/internal/dft"
	"analogdft/internal/fault"
)

// rcLowpass: corner ≈ 1.59 kHz.
func rcLowpass() *circuit.Circuit {
	c := circuit.New("rc")
	c.R("R1", "in", "out", 1e3)
	c.Cap("C1", "out", "0", 100e-9)
	c.Input, c.Output = "in", "out"
	return c
}

// cascade3: three unity inverting stages (same as the dft tests).
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

// lowpassBiquadish: an RC lowpass followed by an opamp buffer chain, so
// capacitor faults shift a corner inside the reference region.
func fastOpts() Options {
	return Options{Points: 61, Probe: analysis.SweepSpec{StartHz: 1e-1, StopHz: 1e8, Points: 121}}
}

func TestEvaluateCircuitRC(t *testing.T) {
	faults := fault.DeviationUniverse(rcLowpass(), 0.2)
	row, err := EvaluateCircuit(rcLowpass(), faults, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Evals) != 2 {
		t.Fatalf("evals = %d, want 2", len(row.Evals))
	}
	for _, e := range row.Evals {
		if e.Err != nil {
			t.Fatalf("%s: %v", e.Fault.ID, e.Err)
		}
		if !e.Detectable {
			t.Errorf("%s not detectable; a 20%% shift moves the corner", e.Fault.ID)
		}
		if e.OmegaDet <= 0 || e.OmegaDet > 100 {
			t.Errorf("%s: ω-det = %g out of range", e.Fault.ID, e.OmegaDet)
		}
		if e.MaxDev <= 0.1 {
			t.Errorf("%s: max deviation = %g, want > ε", e.Fault.ID, e.MaxDev)
		}
	}
	if fc := row.FaultCoverage(); fc != 1 {
		t.Errorf("coverage = %g, want 1", fc)
	}
	if avg := row.AvgOmegaDet(); avg <= 0 || avg > 100 {
		t.Errorf("avg ω-det = %g", avg)
	}
}

func TestEvaluateCircuitRespectsEps(t *testing.T) {
	faults := fault.List{{ID: "fR1", Component: "R1", Kind: fault.Deviation, Factor: 1.2}}
	// With a huge tolerance nothing is detectable.
	opts := fastOpts()
	opts.Eps = 10 // 1000%
	row, err := EvaluateCircuit(rcLowpass(), faults, opts)
	if err != nil {
		t.Fatal(err)
	}
	if row.Evals[0].Detectable {
		t.Fatal("fault detectable at ε = 1000%")
	}
	if row.Evals[0].OmegaDet != 0 {
		t.Fatalf("ω-det = %g, want 0", row.Evals[0].OmegaDet)
	}
}

func TestEvaluateCircuitPinnedRegion(t *testing.T) {
	faults := fault.DeviationUniverse(rcLowpass(), 0.2)
	opts := fastOpts()
	opts.Region = analysis.Region{LoHz: 10, HiHz: 1e3} // deep passband only
	row, err := EvaluateCircuit(rcLowpass(), faults, opts)
	if err != nil {
		t.Fatal(err)
	}
	if row.Region != opts.Region {
		t.Fatalf("region = %v, want pinned", row.Region)
	}
	// In the deep passband an RC lowpass barely moves: nothing detectable.
	for _, e := range row.Evals {
		if e.Detectable {
			t.Errorf("%s detectable in deep passband", e.Fault.ID)
		}
	}
}

func TestEvaluateCircuitBadRegion(t *testing.T) {
	opts := fastOpts()
	opts.Region = analysis.Region{LoHz: 100, HiHz: 10}
	_, err := EvaluateCircuit(rcLowpass(), fault.DeviationUniverse(rcLowpass(), 0.2), opts)
	if err == nil {
		t.Fatal("inverted region accepted")
	}
}

func TestEvaluateCircuitBadFaults(t *testing.T) {
	faults := fault.List{{ID: "", Component: "R1", Kind: fault.Deviation, Factor: 1.2}}
	if _, err := EvaluateCircuit(rcLowpass(), faults, fastOpts()); err == nil {
		t.Fatal("invalid fault list accepted")
	}
}

func TestEvaluateFaultCellError(t *testing.T) {
	faults := fault.List{{ID: "fX", Component: "missing", Kind: fault.Deviation, Factor: 1.2}}
	row, err := EvaluateCircuit(rcLowpass(), faults, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if row.Evals[0].Err == nil {
		t.Fatal("missing component should record a cell error")
	}
	if row.Evals[0].Detectable {
		t.Fatal("failed cell must count as undetectable")
	}
}

func TestBuildMatrixCascade(t *testing.T) {
	ckt := cascade3()
	m, err := dft.ApplyAll(ckt)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.DeviationUniverse(ckt, 0.2)
	opts := fastOpts()
	opts.Region = analysis.Region{LoHz: 10, HiHz: 1e5} // resistive: flat responses
	mx, err := BuildMatrix(m, faults, opts)
	if err != nil {
		t.Fatal(err)
	}
	if mx.NumConfigs() != 7 { // transparent excluded
		t.Fatalf("rows = %d, want 7", mx.NumConfigs())
	}
	if mx.NumFaults() != 6 {
		t.Fatalf("cols = %d, want 6", mx.NumFaults())
	}
	if mx.NumCellErrs() != 0 {
		t.Fatalf("cell errors = %v", mx.CellErrors)
	}
	// The cascade has unity gain per stage: a 20% resistor fault changes the
	// gain by 20% and must be detectable in the functional configuration.
	c0 := mx.ConfigByLabel("C0")
	if c0 < 0 {
		t.Fatal("C0 missing")
	}
	for j := range faults {
		if !mx.Det[c0][j] {
			t.Errorf("fault %s undetectable in C0", faults[j].ID)
		}
	}
	if fc := mx.FaultCoverage(); fc != 1 {
		t.Errorf("max coverage = %g", fc)
	}
	// Configuration C7 would be transparent; ensure none of the rows is.
	for _, cfg := range mx.Configs {
		if cfg.IsTransparent() {
			t.Error("transparent configuration included")
		}
	}
}

func TestBuildMatrixFollowerMasksFaults(t *testing.T) {
	// In configuration C1 (OP1 follower) the faults on R1/R2 around OP1
	// no longer affect the output: the follower bypasses the first stage.
	ckt := cascade3()
	m, _ := dft.ApplyAll(ckt)
	faults := fault.DeviationUniverse(ckt, 0.2)
	opts := fastOpts()
	opts.Region = analysis.Region{LoHz: 10, HiHz: 1e5}
	mx, err := BuildMatrix(m, faults, opts)
	if err != nil {
		t.Fatal(err)
	}
	c1 := mx.ConfigByLabel("C1")
	idx := map[string]int{}
	for j, f := range faults {
		idx[f.ID] = j
	}
	if mx.Det[c1][idx["fR1"]] || mx.Det[c1][idx["fR2"]] {
		t.Error("R1/R2 faults should be masked when OP1 is a follower")
	}
	if !mx.Det[c1][idx["fR3"]] || !mx.Det[c1][idx["fR5"]] {
		t.Error("downstream faults should stay detectable in C1")
	}
}

func TestMatrixIncludeTransparent(t *testing.T) {
	ckt := cascade3()
	m, _ := dft.ApplyAll(ckt)
	faults := fault.List{{ID: "fR1", Component: "R1", Kind: fault.Deviation, Factor: 1.2}}
	opts := fastOpts()
	opts.Region = analysis.Region{LoHz: 10, HiHz: 1e5}
	opts.IncludeTransparent = true
	mx, err := BuildMatrix(m, faults, opts)
	if err != nil {
		t.Fatal(err)
	}
	if mx.NumConfigs() != 8 {
		t.Fatalf("rows = %d, want 8", mx.NumConfigs())
	}
	// Transparent config: identity function, no passive fault detectable.
	last := mx.ConfigByLabel("C7")
	if mx.Det[last][0] {
		t.Error("fault detectable in transparent configuration")
	}
}

// handMatrix builds a small matrix without simulation for the pure
// aggregate-function tests.
func handMatrix() *Matrix {
	faults := fault.List{
		{ID: "f1", Component: "R1", Kind: fault.Deviation, Factor: 1.2},
		{ID: "f2", Component: "R2", Kind: fault.Deviation, Factor: 1.2},
		{ID: "f3", Component: "R3", Kind: fault.Deviation, Factor: 1.2},
	}
	return &Matrix{
		Source:  "hand",
		Configs: []dft.Configuration{{Index: 0, N: 2}, {Index: 1, N: 2}, {Index: 2, N: 2}},
		Faults:  faults,
		Det: [][]bool{
			{true, false, false},
			{false, true, false},
			{true, true, false},
		},
		Omega: [][]float64{
			{50, 0, 0},
			{0, 30, 0},
			{20, 40, 0},
		},
		Region: analysis.Region{LoHz: 1, HiHz: 100},
	}
}

func TestMatrixAggregates(t *testing.T) {
	m := handMatrix()
	if !m.DetectableAnywhere(0) || !m.DetectableAnywhere(1) || m.DetectableAnywhere(2) {
		t.Error("DetectableAnywhere wrong")
	}
	if fc := m.FaultCoverage(); math.Abs(fc-2.0/3) > 1e-12 {
		t.Errorf("FaultCoverage = %g", fc)
	}
	if fc := m.CoverageOf([]int{0}); math.Abs(fc-1.0/3) > 1e-12 {
		t.Errorf("CoverageOf(C0) = %g", fc)
	}
	if fc := m.CoverageOf([]int{0, 1}); math.Abs(fc-2.0/3) > 1e-12 {
		t.Errorf("CoverageOf(C0,C1) = %g", fc)
	}
	best := m.BestOmega(nil)
	want := []float64{50, 40, 0}
	for j := range want {
		if best[j] != want[j] {
			t.Errorf("BestOmega[%d] = %g, want %g", j, best[j], want[j])
		}
	}
	if avg := m.AvgBestOmega(nil); math.Abs(avg-30) > 1e-12 {
		t.Errorf("AvgBestOmega = %g, want 30", avg)
	}
	if avg := m.AvgBestOmega([]int{2}); math.Abs(avg-20) > 1e-12 {
		t.Errorf("AvgBestOmega(C2) = %g, want 20", avg)
	}
}

func TestMatrixRowOf(t *testing.T) {
	m := handMatrix()
	row, err := m.RowOf(2)
	if err != nil {
		t.Fatal(err)
	}
	if row.FaultCoverage() != 2.0/3 {
		t.Errorf("row coverage = %g", row.FaultCoverage())
	}
	if math.Abs(row.AvgOmegaDet()-20) > 1e-12 {
		t.Errorf("row avg ω-det = %g", row.AvgOmegaDet())
	}
	if _, err := m.RowOf(9); err == nil {
		t.Fatal("out-of-range row accepted")
	}
}

func TestMatrixSubMatrix(t *testing.T) {
	m := handMatrix()
	sub, err := m.SubMatrix([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumConfigs() != 2 || sub.Configs[0].Index != 2 {
		t.Fatalf("sub configs = %v", sub.Configs)
	}
	if sub.Det[0][1] != true || sub.Det[1][0] != true {
		t.Error("sub rows not in requested order")
	}
	if _, err := m.SubMatrix([]int{5}); err == nil {
		t.Fatal("bad row index accepted")
	}
}

func TestConfigByLabelMissing(t *testing.T) {
	if handMatrix().ConfigByLabel("C9") != -1 {
		t.Fatal("missing label should map to -1")
	}
}

func TestRunParallelCoversAll(t *testing.T) {
	ctx := context.Background()
	seen := make([]bool, 100)
	runParallel(ctx, len(seen), 7, func(_ context.Context, i int) { seen[i] = true })
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d not visited", i)
		}
	}
	// workers > n clamps to n; the shared counter must be atomic because
	// the clamped path still runs multiple goroutines.
	var count atomic.Int64
	runParallel(ctx, 3, 10, func(_ context.Context, i int) { count.Add(1) })
	if count.Load() != 3 {
		t.Fatalf("clamped parallel path ran %d times, want 3", count.Load())
	}
	count.Store(0)
	runParallel(ctx, 5, 1, func(_ context.Context, i int) { count.Add(1) })
	if count.Load() != 5 {
		t.Fatalf("sequential path ran %d times, want 5", count.Load())
	}
}

func TestRunParallelCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var count atomic.Int64
	runParallel(ctx, 50, 1, func(_ context.Context, i int) { count.Add(1) })
	if count.Load() != 0 {
		t.Fatalf("sequential path ran %d cells under a cancelled context", count.Load())
	}
	runParallel(ctx, 50, 4, func(_ context.Context, i int) { count.Add(1) })
	if count.Load() != 0 {
		t.Fatalf("parallel path ran %d cells under a cancelled context", count.Load())
	}
}

func TestBuildMatrixDeterministic(t *testing.T) {
	ckt := cascade3()
	m, _ := dft.ApplyAll(ckt)
	faults := fault.DeviationUniverse(ckt, 0.2)
	opts := fastOpts()
	opts.Region = analysis.Region{LoHz: 10, HiHz: 1e5}
	a, err := BuildMatrix(m, faults, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 1
	b, err := BuildMatrix(m, faults, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Det {
		for j := range a.Det[i] {
			if a.Det[i][j] != b.Det[i][j] || math.Abs(a.Omega[i][j]-b.Omega[i][j]) > 1e-12 {
				t.Fatalf("parallel/sequential mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// Failure injection: a circuit whose every AC solve is singular (an ideal
// opamp output shorted to an independent source — the output current split
// is indeterminate). The engine must degrade gracefully: all points
// invalid, faults undetectable, no panic.
func TestAllSingularNominal(t *testing.T) {
	c := circuit.New("conflict")
	c.V("V1", "x", "0", 1)
	c.R("R1", "in", "m", 1e3)
	c.R("R2", "m", "x", 1e3)
	c.OA("OP1", "0", "m", "x") // output hard-tied to V1's node
	c.Input, c.Output = "in", "x"
	faults := fault.DeviationUniverse(c, 0.2)
	opts := fastOpts()
	opts.Region = analysis.Region{LoHz: 10, HiHz: 1e4}
	row, err := EvaluateCircuit(c, faults, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range row.Evals {
		if e.Detectable {
			t.Errorf("%s detectable in an unsolvable circuit", e.Fault.ID)
		}
		// Error transparency: the engine must not launder an unusable
		// baseline into a silent "undetectable".
		if !errors.Is(e.Err, analysis.ErrAllInvalid) {
			t.Errorf("%s: err = %v, want ErrAllInvalid", e.Fault.ID, e.Err)
		}
	}
	if row.FaultCoverage() != 0 {
		t.Fatalf("coverage = %g", row.FaultCoverage())
	}
	if row.Stats.Errors != len(row.Evals) {
		t.Fatalf("stats errors = %d, want %d", row.Stats.Errors, len(row.Evals))
	}
	if row.Stats.SingularPoints == 0 {
		t.Fatal("stats should count the singular nominal points")
	}
}

// conflictCircuit is the unsolvable circuit from TestAllSingularNominal.
func conflictCircuit() *circuit.Circuit {
	c := circuit.New("conflict")
	c.V("V1", "x", "0", 1)
	c.R("R1", "in", "m", 1e3)
	c.R("R2", "m", "x", 1e3)
	c.OA("OP1", "0", "m", "x")
	c.Input, c.Output = "in", "x"
	return c
}

// EpsProfile interplay with the matrix path.
func TestBuildMatrixEpsProfileLengthChecked(t *testing.T) {
	ckt := cascade3()
	m, _ := dft.ApplyAll(ckt)
	faults := fault.DeviationUniverse(ckt, 0.2)
	opts := fastOpts()
	opts.Region = analysis.Region{LoHz: 10, HiHz: 1e5}
	opts.EpsProfile = []float64{0.1, 0.2} // wrong length
	if _, err := BuildMatrix(m, faults, opts); err == nil {
		t.Fatal("mismatched EpsProfile accepted")
	}
}

func TestThresholdAt(t *testing.T) {
	o := Options{Eps: 0.1, EpsProfile: []float64{0.05, 0.3}}
	if o.thresholdAt(0) != 0.1 { // profile below scalar: scalar wins
		t.Error("threshold 0")
	}
	if o.thresholdAt(1) != 0.3 {
		t.Error("threshold 1")
	}
	if o.thresholdAt(5) != 0.1 { // out of profile range
		t.Error("threshold 5")
	}
}

// Per-configuration regions: each row is measured over its own derived
// Ω_reference. On the resistive cascade every configuration is flat, so
// regions derive fine and coverage matches the shared-region run.
func TestBuildMatrixPerConfigRegion(t *testing.T) {
	ckt := cascade3()
	m, _ := dft.ApplyAll(ckt)
	faults := fault.DeviationUniverse(ckt, 0.2)
	shared := fastOpts()
	shared.Region = analysis.Region{LoHz: 10, HiHz: 1e5}
	per := shared
	per.PerConfigRegion = true
	a, err := BuildMatrix(m, faults, shared)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildMatrix(m, faults, per)
	if err != nil {
		t.Fatal(err)
	}
	if a.FaultCoverage() != b.FaultCoverage() {
		t.Fatalf("coverage differs: shared %g vs per-config %g", a.FaultCoverage(), b.FaultCoverage())
	}
	// Flat resistive responses have no measurable passband corner inside
	// the probe, so per-config derivation falls back to the shared region
	// and the boolean matrices agree cell-for-cell here.
	for i := range a.Det {
		for j := range a.Det[i] {
			if a.Det[i][j] != b.Det[i][j] {
				t.Fatalf("cell (%d,%d) differs", i, j)
			}
		}
	}
}

func TestWorstCasePerComponent(t *testing.T) {
	row := &Row{
		Circuit: "c",
		Evals: []FaultEval{
			{Fault: fault.Fault{ID: "fR1+"}, Detectable: false, OmegaDet: 0, MaxDev: 0.05},
			{Fault: fault.Fault{ID: "fR1-"}, Detectable: true, OmegaDet: 40, MaxDev: 0.3},
			{Fault: fault.Fault{ID: "fC1+"}, Detectable: true, OmegaDet: 10, MaxDev: 0.2},
			{Fault: fault.Fault{ID: "fC1-"}, Detectable: true, OmegaDet: 25, MaxDev: 0.15},
			{Fault: fault.Fault{ID: "fL9"}, Detectable: false, OmegaDet: 0, MaxDev: 0.01},
		},
	}
	wc := WorstCasePerComponent(row)
	if len(wc.Evals) != 3 {
		t.Fatalf("merged evals = %d, want 3", len(wc.Evals))
	}
	byID := map[string]FaultEval{}
	for _, e := range wc.Evals {
		byID[e.Fault.ID] = e
	}
	r1 := byID["fR1"]
	if !r1.Detectable || r1.OmegaDet != 40 || r1.MaxDev != 0.3 {
		t.Fatalf("fR1 worst case = %+v", r1)
	}
	c1 := byID["fC1"]
	if c1.OmegaDet != 25 || c1.MaxDev != 0.2 {
		t.Fatalf("fC1 worst case = %+v", c1)
	}
	if _, ok := byID["fL9"]; !ok {
		t.Fatal("unpaired fault dropped")
	}
	if wc.FaultCoverage() != 2.0/3 {
		t.Fatalf("worst-case coverage = %g", wc.FaultCoverage())
	}
}

// End-to-end bipolar worst case on the RC lowpass: both directions of both
// components merge into two rows, both detectable.
func TestWorstCaseEndToEnd(t *testing.T) {
	faults := fault.BipolarDeviationUniverse(rcLowpass(), 0.2)
	row, err := EvaluateCircuit(rcLowpass(), faults, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	wc := WorstCasePerComponent(row)
	if len(wc.Evals) != 2 {
		t.Fatalf("components = %d", len(wc.Evals))
	}
	if wc.FaultCoverage() != 1 {
		t.Fatalf("worst-case coverage = %g", wc.FaultCoverage())
	}
}

// mixedFaults returns a universe where fault index 1 cannot be applied
// (component does not exist) while the rest simulate normally.
func mixedFaults(ckt *circuit.Circuit) fault.List {
	faults := fault.DeviationUniverse(ckt, 0.2)
	bad := fault.Fault{ID: "fBAD", Component: "missing", Kind: fault.Deviation, Factor: 1.2}
	out := fault.List{faults[0], bad}
	out = append(out, faults[1:]...)
	return out
}

func TestBuildMatrixErrorParityAcrossWorkers(t *testing.T) {
	ckt := cascade3()
	m, _ := dft.ApplyAll(ckt)
	faults := mixedFaults(ckt)
	opts := fastOpts()
	opts.Region = analysis.Region{LoHz: 10, HiHz: 1e5}

	opts.Workers = 1
	seq, err := BuildMatrix(m, faults, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 8
	par, err := BuildMatrix(m, faults, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Healthy cells must still be measured; the bad fault's column fails
	// once per configuration, in row-major order.
	if seq.NumCellErrs() != seq.NumConfigs() {
		t.Fatalf("cell errors = %d, want one per config (%d)", seq.NumCellErrs(), seq.NumConfigs())
	}
	if par.NumCellErrs() != seq.NumCellErrs() {
		t.Fatalf("error count differs: seq %d, par %d", seq.NumCellErrs(), par.NumCellErrs())
	}
	for k := range seq.CellErrors {
		a, b := seq.CellErrors[k], par.CellErrors[k]
		if a.Config != b.Config || a.FaultIndex != b.FaultIndex || a.Fault.ID != b.Fault.ID {
			t.Fatalf("cell error %d differs: %+v vs %+v", k, a, b)
		}
		if a.Err.Error() != b.Err.Error() {
			t.Fatalf("cell error %d cause differs: %v vs %v", k, a.Err, b.Err)
		}
		if a.Fault.ID != "fBAD" || a.FaultIndex != 1 {
			t.Fatalf("cell error %d on wrong cell: %+v", k, a)
		}
	}
	for i := range seq.Det {
		for j := range seq.Det[i] {
			if seq.Det[i][j] != par.Det[i][j] || seq.Omega[i][j] != par.Omega[i][j] {
				t.Fatalf("matrix mismatch at (%d,%d)", i, j)
			}
		}
	}
	// Degraded coverage: every other fault stays detectable somewhere.
	for j := range faults {
		want := faults[j].ID != "fBAD"
		if seq.DetectableAnywhere(j) != want {
			t.Errorf("fault %s detectable=%v, want %v", faults[j].ID, !want, want)
		}
	}
	if seq.Stats.Errors != seq.NumCellErrs() || par.Stats.Errors != par.NumCellErrs() {
		t.Errorf("stats errors %d/%d disagree with cell errors %d/%d",
			seq.Stats.Errors, par.Stats.Errors, seq.NumCellErrs(), par.NumCellErrs())
	}
}

func TestBuildMatrixFailFast(t *testing.T) {
	ckt := cascade3()
	m, _ := dft.ApplyAll(ckt)
	// Bad fault first: with Workers=1 the very first cell fails.
	faults := fault.List{{ID: "fBAD", Component: "missing", Kind: fault.Deviation, Factor: 1.2}}
	faults = append(faults, fault.DeviationUniverse(ckt, 0.2)...)
	opts := fastOpts()
	opts.Region = analysis.Region{LoHz: 10, HiHz: 1e5}
	opts.OnError = FailFast

	var last Stats
	opts.Progress = func(s Stats) { last = s }
	opts.Workers = 1
	_, err := BuildMatrix(m, faults, opts)
	var ce CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want a CellError", err)
	}
	if ce.Fault.ID != "fBAD" || ce.FaultIndex != 0 {
		t.Fatalf("cell error = %+v, want the first cell", ce)
	}
	if last.CellsDone != 1 {
		t.Fatalf("sequential fail-fast completed %d cells, want 1", last.CellsDone)
	}
	if last.CellsDone >= last.Cells {
		t.Fatal("fail-fast did not abort early")
	}

	opts.Progress = nil
	opts.Workers = 4
	_, err = BuildMatrix(m, faults, opts)
	if !errors.As(err, &ce) {
		t.Fatalf("parallel err = %v, want a CellError", err)
	}
	if ce.Fault.ID != "fBAD" {
		t.Fatalf("parallel cell error on %s, want fBAD", ce.Fault.ID)
	}
}

func TestEvaluateCircuitFailFast(t *testing.T) {
	faults := fault.List{{ID: "fX", Component: "missing", Kind: fault.Deviation, Factor: 1.2}}
	opts := fastOpts()
	opts.OnError = FailFast
	_, err := EvaluateCircuit(rcLowpass(), faults, opts)
	if err == nil {
		t.Fatal("fail-fast returned a row despite a failing cell")
	}
}

func TestRetryPolicyAccounting(t *testing.T) {
	// Unsolvable circuit: retries are spent, nothing recovers, and the
	// cells still surface ErrAllInvalid.
	faults := fault.DeviationUniverse(conflictCircuit(), 0.2)
	opts := fastOpts()
	opts.Region = analysis.Region{LoHz: 10, HiHz: 1e4}
	opts.OnError = Retry
	row, err := EvaluateCircuit(conflictCircuit(), faults, opts)
	if err != nil {
		t.Fatal(err)
	}
	if row.Stats.Retries == 0 {
		t.Fatal("retry policy spent no retries on an all-singular sweep")
	}
	if row.Stats.Recovered != 0 {
		t.Fatalf("recovered = %d points of an unsolvable circuit", row.Stats.Recovered)
	}
	for _, e := range row.Evals {
		if !errors.Is(e.Err, analysis.ErrAllInvalid) {
			t.Errorf("%s: err = %v, want ErrAllInvalid", e.Fault.ID, e.Err)
		}
	}

	// Healthy circuit: Retry must be a no-op equivalent to Degrade.
	opts = fastOpts()
	opts.OnError = Retry
	row, err = EvaluateCircuit(rcLowpass(), fault.DeviationUniverse(rcLowpass(), 0.2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if row.Stats.Retries != 0 || row.Stats.Recovered != 0 || row.Stats.SingularPoints != 0 {
		t.Fatalf("healthy circuit spent retries: %+v", row.Stats)
	}
	if row.ErrCount() != 0 || row.FaultCoverage() != 1 {
		t.Fatalf("healthy retry run degraded: errs=%d coverage=%g", row.ErrCount(), row.FaultCoverage())
	}
}

func TestNoEpsHonorsZeroTolerance(t *testing.T) {
	// A 0.1% resistor shift is far below the default 10% tolerance but
	// still produces a nonzero deviation.
	faults := fault.List{{ID: "fR1", Component: "R1", Kind: fault.Deviation, Factor: 1.001}}

	opts := fastOpts() // Eps zero sentinel -> default 0.10
	row, err := EvaluateCircuit(rcLowpass(), faults, opts)
	if err != nil {
		t.Fatal(err)
	}
	if row.Evals[0].Detectable {
		t.Fatal("0.1% fault detectable at the default 10% tolerance")
	}

	opts.NoEps = true // honor Eps == 0 as a true zero tolerance
	row, err = EvaluateCircuit(rcLowpass(), faults, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !row.Evals[0].Detectable {
		t.Fatal("0.1% fault undetectable at zero tolerance")
	}
}

func TestProgressDeterministicAcrossWorkers(t *testing.T) {
	ckt := cascade3()
	m, _ := dft.ApplyAll(ckt)
	faults := fault.DeviationUniverse(ckt, 0.2)
	opts := fastOpts()
	opts.Region = analysis.Region{LoHz: 10, HiHz: 1e5}

	capture := func(workers int) []Stats {
		var snaps []Stats
		o := opts
		o.Workers = workers
		o.Progress = func(s Stats) {
			s.Elapsed = 0 // wall time is the only legitimately nondeterministic field
			snaps = append(snaps, s)
		}
		if _, err := BuildMatrix(m, faults, o); err != nil {
			t.Fatal(err)
		}
		return snaps
	}
	seq := capture(1)
	par := capture(8)
	if len(seq) != len(par) {
		t.Fatalf("snapshot counts differ: %d vs %d", len(seq), len(par))
	}
	for k := range seq {
		if seq[k] != par[k] {
			t.Fatalf("snapshot %d differs:\nseq %+v\npar %+v", k, seq[k], par[k])
		}
	}
	// One snapshot per cell plus the final one; CellsDone strictly ordered.
	want := 7*len(faults) + 1
	if len(seq) != want {
		t.Fatalf("snapshots = %d, want %d", len(seq), want)
	}
	for k := 1; k < len(seq); k++ {
		if seq[k].CellsDone < seq[k-1].CellsDone {
			t.Fatalf("CellsDone regressed at snapshot %d", k)
		}
	}
}

func TestRowOfAndSubMatrixPropagateCellErrors(t *testing.T) {
	m := handMatrix()
	boom := errors.New("boom")
	m.CellErrors = []CellError{
		{Config: m.Configs[1], FaultIndex: 2, Fault: m.Faults[2], Err: boom},
	}
	row, err := m.RowOf(1)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(row.Evals[2].Err, boom) {
		t.Fatalf("RowOf dropped the cell error: %+v", row.Evals[2])
	}
	if row.Evals[0].Err != nil || row.Evals[1].Err != nil {
		t.Fatal("RowOf smeared the error over healthy cells")
	}
	clean, err := m.RowOf(0)
	if err != nil {
		t.Fatal(err)
	}
	if clean.ErrCount() != 0 {
		t.Fatal("RowOf(0) picked up another row's error")
	}

	sub, err := m.SubMatrix([]int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumCellErrs() != 1 || !errors.Is(sub.CellErrors[0].Err, boom) {
		t.Fatalf("SubMatrix errors = %+v", sub.CellErrors)
	}
	sub, err = m.SubMatrix([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumCellErrs() != 0 {
		t.Fatal("SubMatrix kept an error for an excluded row")
	}
}

func TestCellErrorFormatting(t *testing.T) {
	cause := errors.New("boom")
	ce := CellError{Config: dft.Configuration{Index: 3, N: 3}, FaultIndex: 1,
		Fault: fault.Fault{ID: "fR2"}, Err: cause}
	if !errors.Is(ce, cause) {
		t.Fatal("CellError does not unwrap to its cause")
	}
	msg := ce.Error()
	for _, want := range []string{"C3", "fR2", "boom"} {
		if !contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestErrorPolicyString(t *testing.T) {
	cases := map[ErrorPolicy]string{Degrade: "degrade", FailFast: "failfast", Retry: "retry", ErrorPolicy(9): "ErrorPolicy(9)"}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
}
