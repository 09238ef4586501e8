package analogdft

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"analogdft/internal/detect"
)

// requireSameMatrix fails unless got equals want bit for bit: Det and
// Omega compared with ==, plus source, rows, fault columns, region and
// cell errors. Stats are not compared: a lifted matrix simulates nothing.
func requireSameMatrix(t *testing.T, label string, got, want *Matrix) {
	t.Helper()
	if got.Source != want.Source || got.Region != want.Region {
		t.Fatalf("%s: source/region %q %v, want %q %v", label, got.Source, got.Region, want.Source, want.Region)
	}
	if !reflect.DeepEqual(got.Configs, want.Configs) {
		t.Fatalf("%s: configs %v, want %v", label, got.Configs, want.Configs)
	}
	if !reflect.DeepEqual(got.Faults.IDs(), want.Faults.IDs()) {
		t.Fatalf("%s: faults %v, want %v", label, got.Faults.IDs(), want.Faults.IDs())
	}
	for i := range want.Det {
		for j := range want.Det[i] {
			if got.Det[i][j] != want.Det[i][j] || got.Omega[i][j] != want.Omega[i][j] {
				t.Errorf("%s: cell (%s,%s) = %t/%v, simulated %t/%v", label, want.Configs[i].Label(),
					want.Faults[j].ID, got.Det[i][j], got.Omega[i][j], want.Det[i][j], want.Omega[i][j])
			}
		}
	}
	if len(got.CellErrors) != len(want.CellErrors) {
		t.Fatalf("%s: %d cell errors, want %d", label, len(got.CellErrors), len(want.CellErrors))
	}
	for k, ce := range want.CellErrors {
		g := got.CellErrors[k]
		if g.Config != ce.Config || g.FaultIndex != ce.FaultIndex || g.Fault != ce.Fault || g.Err.Error() != ce.Err.Error() {
			t.Errorf("%s: cell error %d = %v, want %v", label, k, g, ce)
		}
	}
}

// checkLift builds the full matrix of bench, then the partial matrix of
// the sub-chain chosen both ways — lifted from full rows and simulated —
// and requires them to agree exactly. It reports whether the rows lifted.
func checkLift(t *testing.T, label string, bench *Bench, frac float64, opts Options, chosen []string) bool {
	t.Helper()
	m, err := ApplyDFT(bench.Circuit, bench.Chain)
	if err != nil {
		t.Fatal(err)
	}
	faults := DeviationFaults(bench.Circuit, frac)
	full, err := BuildMatrix(m, faults, opts)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := m.SubChain(chosen)
	if err != nil {
		t.Fatal(err)
	}
	popts := opts
	popts.IncludeTransparent = len(chosen) < len(m.AllOpamps)
	want, err := BuildMatrix(sub, faults, popts)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := liftMatrix(full, m, sub, popts)
	if ok {
		requireSameMatrix(t, label, got, want)
	}
	return ok
}

// TestLiftMatrixPaperFractions: on the paper biquad at every benchmark
// fault size, the §4.3 partial matrix over {OP1, OP2} is a copy of full
// rows, bit-identical to simulating the partial circuit.
func TestLiftMatrixPaperFractions(t *testing.T) {
	for _, frac := range []float64{0.10, 0.15, 0.20, 0.25, 0.30} {
		label := fmt.Sprintf("frac=%.2f", frac)
		if !checkLift(t, label, PaperBiquad(), frac, PaperOptions(), []string{"OP1", "OP2"}) {
			t.Errorf("%s: prefix sub-chain did not lift", label)
		}
	}
}

// subChains returns every proper non-empty subset of chain in chain order,
// split into prefixes and the rest.
func subChains(chain []string) (prefixes, others [][]string) {
	n := len(chain)
	for mask := 1; mask < 1<<uint(n)-1; mask++ {
		var sub []string
		for i, name := range chain {
			if mask&(1<<uint(i)) != 0 {
				sub = append(sub, name)
			}
		}
		if mask&(mask+1) == 0 {
			prefixes = append(prefixes, sub)
		} else {
			others = append(others, sub)
		}
	}
	return prefixes, others
}

// TestLiftMatrixLibrary covers every library circuit with 2–4 opamps on
// the automatic region, with the §5 MaxFollowers restriction and with
// per-configuration regions: every prefix sub-chain lifts and matches the
// simulated matrix exactly; every other sub-chain has a rewired follower
// and must not lift.
func TestLiftMatrixLibrary(t *testing.T) {
	variants := map[string]Options{
		"shared":    {Eps: 0.10, MeasFloor: 0.01, Points: 31},
		"maxfollow": {Eps: 0.10, MeasFloor: 0.01, Points: 31, MaxFollowers: 1},
		"perconfig": {Eps: 0.10, MeasFloor: 0.01, Points: 31, PerConfigRegion: true},
	}
	tested := 0
	for name, bench := range CircuitLibrary() {
		if n := len(bench.Chain); n < 2 || n > 4 {
			continue
		}
		tested++
		prefixes, others := subChains(bench.Chain)
		for vname, opts := range variants {
			for _, chosen := range prefixes {
				label := fmt.Sprintf("%s/%s/%v", name, vname, chosen)
				if !checkLift(t, label, bench, 0.2, opts, chosen) {
					t.Errorf("%s: prefix sub-chain did not lift", label)
				}
			}
			for _, chosen := range others {
				label := fmt.Sprintf("%s/%s/%v", name, vname, chosen)
				if checkLift(t, label, bench, 0.2, opts, chosen) {
					t.Errorf("%s: non-prefix sub-chain lifted", label)
				}
			}
		}
	}
	if tested < 3 {
		t.Fatalf("only %d library circuits have 2–4 opamps", tested)
	}
}

// TestLiftMatrixRelabelsCellErrors: a failed full-matrix cell keeps its
// fault and cause but is relabelled to the partial configuration.
func TestLiftMatrixRelabelsCellErrors(t *testing.T) {
	bench := PaperBiquad()
	m, err := ApplyDFT(bench.Circuit, bench.Chain)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := m.SubChain([]string{"OP1", "OP2"})
	if err != nil {
		t.Fatal(err)
	}
	faults := DeviationFaults(bench.Circuit, 0.2)
	full := &Matrix{Source: m.Base.Name, Faults: faults, Configs: detect.MatrixConfigs(m, Options{})}
	for range full.Configs {
		full.Det = append(full.Det, make([]bool, len(faults)))
		full.Omega = append(full.Omega, make([]float64, len(faults)))
	}
	full.Det[3][1] = true
	full.CellErrors = []CellError{
		{Config: Configuration{Index: 3, N: 3}, FaultIndex: 2, Fault: faults[2], Err: fmt.Errorf("boom")},
		{Config: Configuration{Index: 4, N: 3}, FaultIndex: 0, Fault: faults[0], Err: fmt.Errorf("dropped")},
	}
	got, ok := liftMatrix(full, m, sub, Options{IncludeTransparent: true})
	if !ok {
		t.Fatal("prefix sub-chain did not lift")
	}
	if got.NumConfigs() != 4 || !got.Det[3][1] {
		t.Fatalf("lifted rows %v, Det %v", got.Configs, got.Det)
	}
	want := CellError{Config: Configuration{Index: 3, N: 2}, FaultIndex: 2, Fault: faults[2]}
	if len(got.CellErrors) != 1 || got.CellErrors[0].Config != want.Config ||
		got.CellErrors[0].FaultIndex != want.FaultIndex || got.CellErrors[0].Err.Error() != "boom" {
		t.Fatalf("cell errors %v, want only %v: boom", got.CellErrors, want)
	}
	got.Det[3][1] = false
	if !full.Det[3][1] {
		t.Fatal("lifted rows alias the full matrix")
	}
}

// TestRunReusesPartialRows: Run takes the lifted path on the paper flow,
// and its partial matrix matches simulating the partial circuit.
func TestRunReusesPartialRows(t *testing.T) {
	e, err := Run(PaperBiquad(), 0.10, PaperOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !e.PartialReused || e.PartialMatrix.Stats.Solves != 0 {
		t.Fatalf("partial matrix simulated (reused=%t, %s)", e.PartialReused, e.PartialMatrix.Stats)
	}
	want, err := BuildMatrix(e.Partial, e.Faults, Options{Eps: 0.10, MeasFloor: 0.01,
		Region: Region{LoHz: 100, HiHz: 5600}, Points: 241, IncludeTransparent: true})
	if err != nil {
		t.Fatal(err)
	}
	requireSameMatrix(t, "paper-flow", e.PartialMatrix, want)
	if len(e.PartialMissed) != 0 {
		t.Fatalf("lifted partial DFT missed %v", e.PartialMissed)
	}
}

// TestRunReportsFaultSize: the report header prints the run's own fault
// size, not the paper's 20%.
func TestRunReportsFaultSize(t *testing.T) {
	opts := PaperOptions()
	opts.Points = 61
	e, err := Run(PaperBiquad(), 0.30, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.FaultSize-0.30) > 1e-12 {
		t.Fatalf("FaultSize = %v, want 0.30", e.FaultSize)
	}
	var sb strings.Builder
	if err := e.Report(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "8 soft faults (+30% deviations)") {
		t.Fatalf("header does not print the 30%% fault size:\n%s", sb.String()[:300])
	}
}

// TestRunFaultsBipolarAligned: with the bipolar universe every
// fault-indexed series — the initial row, both matrices and every graph
// series — holds the same 16 faults in the same order.
func TestRunFaultsBipolarAligned(t *testing.T) {
	bench := PaperBiquad()
	faults := BipolarDeviationFaults(bench.Circuit, 0.20)
	opts := PaperOptions()
	opts.Points = 61
	e, err := RunFaults(bench, faults, opts)
	if err != nil {
		t.Fatal(err)
	}
	ids := faults.IDs()
	if len(ids) != 16 || !reflect.DeepEqual(e.Faults.IDs(), ids) {
		t.Fatalf("experiment faults %v", e.Faults.IDs())
	}
	var initial []string
	for _, ev := range e.Initial.Evals {
		initial = append(initial, ev.Fault.ID)
	}
	if !reflect.DeepEqual(initial, ids) {
		t.Fatalf("initial row faults %v, want %v", initial, ids)
	}
	for label, mx := range map[string]*Matrix{"full": e.Matrix, "partial": e.PartialMatrix} {
		if !reflect.DeepEqual(mx.Faults.IDs(), ids) {
			t.Fatalf("%s matrix faults %v", label, mx.Faults.IDs())
		}
		for i := range mx.Det {
			if len(mx.Det[i]) != 16 || len(mx.Omega[i]) != 16 {
				t.Fatalf("%s row %d has %d/%d cells", label, i, len(mx.Det[i]), len(mx.Omega[i]))
			}
		}
		if n := len(mx.BestOmega(nil)); n != 16 {
			t.Fatalf("%s best-omega series has %d entries", label, n)
		}
	}
	if n := len(e.Matrix.BestOmega(e.ConfigOpt.Best.Rows)); n != 16 {
		t.Fatalf("optimized series has %d entries", n)
	}
	var sb strings.Builder
	if err := e.Report(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "16 soft faults (±20% deviations)") {
		t.Fatalf("bipolar header wrong:\n%s", sb.String()[:300])
	}
}

// TestRunExplainsPartialShortfall pins the two library cases where the
// simulated partial DFT covers less than §4.3 predicts. Both chosen sets
// are not prefixes of the test chain, so the partial matrix is simulated
// on a rewired chain.
func TestRunExplainsPartialShortfall(t *testing.T) {
	cases := []struct {
		name                 string
		frac                 float64
		chosen               []string
		predicted, simulated float64
	}{
		{"khn-state-variable", 0.20, []string{"OP3"}, 1, 7.0 / 9},
		{"biquad-cascade-2", 0.10, []string{"OP2_1", "OP2_2"}, 0.75, 0.5},
	}
	for _, c := range cases {
		e, err := Run(CircuitLibrary()[c.name], c.frac, Options{Eps: 0.10, MeasFloor: 0.01, Points: 61})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(e.OpampOpt.Chosen, c.chosen) || e.PartialReused {
			t.Fatalf("%s: chosen %v (reused=%t), want simulated %v", c.name, e.OpampOpt.Chosen, e.PartialReused, c.chosen)
		}
		if e.OpampOpt.Coverage != c.predicted || math.Abs(e.PartialMatrix.FaultCoverage()-c.simulated) > 1e-12 {
			t.Fatalf("%s: predicted %v simulated %v, want %v %v", c.name,
				e.OpampOpt.Coverage, e.PartialMatrix.FaultCoverage(), c.predicted, c.simulated)
		}
		if len(e.PartialMissed) == 0 {
			t.Fatalf("%s: shortfall not recorded", c.name)
		}
		var sb strings.Builder
		if err := e.Report(&sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "warning: the simulated partial DFT covers") ||
			!strings.Contains(sb.String(), "not a prefix of the test chain") {
			t.Fatalf("%s: report does not explain the shortfall", c.name)
		}
	}
}
