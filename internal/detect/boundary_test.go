package detect

import (
	"math"
	"reflect"
	"testing"

	"analogdft/internal/analysis"
	"analogdft/internal/circuits"
	"analogdft/internal/dft"
	"analogdft/internal/fault"
	"analogdft/internal/netgen"
)

// boundaryRelTol is how close |ΔT/T| must come to ε, relative to ε, for a
// grid point to count as sitting on the threshold: far below any physical
// meaning, far above the few ulps by which engine modes can differ.
const boundaryRelTol = 1e-12

// epsBoundaryCells lists, as "config/fault", every matrix cell whose
// relative deviation equals ε within boundaryRelTol at some grid point.
// Such a cell's verdict at that point is decided by rounding: r > ε can
// flip between engines that order their floating-point work differently.
func epsBoundaryCells(t *testing.T, m *dft.Modified, faults fault.List, opts Options) []string {
	t.Helper()
	opts = opts.Normalize()
	functional, err := m.Configure(dft.Configuration{Index: 0, N: m.N()})
	if err != nil {
		t.Fatal(err)
	}
	region, err := resolveRegion(functional, opts)
	if err != nil {
		t.Fatal(err)
	}
	grid := region.Spec(opts.Points).Grid()
	var out []string
	for _, cfg := range matrixConfigs(m, opts) {
		ckt, err := m.Configure(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nominal, err := analysis.SweepOnGrid(ckt, grid)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range faults {
			faulty, err := f.Apply(ckt)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := analysis.SweepOnGrid(faulty, grid)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := analysis.RelativeDeviation(nominal, resp, opts.MeasFloor)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range prof.Rel {
				if math.Abs(r-opts.Eps) <= boundaryRelTol*opts.Eps {
					out = append(out, cfg.Label()+"/"+f.ID)
					break
				}
			}
		}
	}
	return out
}

// TestEpsBoundaryCellsPaperBiquad pins the cells of the paper flow that
// sit exactly on ε. At frac 0.10, R3×1.1 scales the output of
// configurations C1 and C3 by exactly 1.1, so |ΔT/T| = ε across the
// band: those two cells are detected or not by rounding alone, and any
// engine-equivalence claim must exclude them.
func TestEpsBoundaryCellsPaperBiquad(t *testing.T) {
	bench := circuits.PaperBiquad()
	m, err := dft.Apply(bench.Circuit, bench.Chain)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Eps: 0.10, MeasFloor: 0.01, Region: analysis.Region{LoHz: 100, HiHz: 5600}, Points: 241}
	want := map[float64][]string{
		0.10: {"C1/fR3", "C3/fR3"},
	}
	for _, frac := range []float64{0.10, 0.15, 0.20, 0.25, 0.30} {
		got := epsBoundaryCells(t, m, fault.DeviationUniverse(bench.Circuit, frac), opts)
		if !reflect.DeepEqual(got, want[frac]) {
			t.Errorf("frac %.2f: cells on ε = %v, want %v", frac, got, want[frac])
		}
	}
}

// TestEpsBoundaryCellsGenerated checks a few random active-RC circuits.
// At frac 0.10 the inverting stages' feedback resistors Rb scale their
// stage gain, and so the response, by exactly 1.1 in every configuration
// that keeps the stage in normal mode and buffers what follows: those
// cells sit on ε. At frac 0.20 none does.
func TestEpsBoundaryCellsGenerated(t *testing.T) {
	want := map[int64][]string{
		1: {"C0/fRb_2", "C1/fRb_2"},
		2: {"C0/fRb_2", "C1/fRb_2"},
		3: {"C0/fRb_1", "C0/fRb_2", "C1/fRb_2", "C2/fRb_1"},
		4: {"C0/fRb_1", "C0/fRb_2", "C1/fRb_2", "C2/fRb_1"},
		5: {"C0/fRb_1", "C0/fRb_2", "C1/fRb_2", "C2/fRb_1"},
	}
	for seed := int64(1); seed <= 5; seed++ {
		bench, err := netgen.Random(netgen.Spec{Stages: 2, Seed: seed, AllowBiquad: seed%3 == 0})
		if err != nil {
			t.Fatal(err)
		}
		m, err := dft.Apply(bench.Circuit, bench.Chain)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Region: analysis.Region{LoHz: 100, HiHz: 1e6}, Points: 21}
		if got := epsBoundaryCells(t, m, fault.DeviationUniverse(bench.Circuit, 0.10), opts); !reflect.DeepEqual(got, want[seed]) {
			t.Errorf("seed %d frac 0.10: cells on ε = %v, want %v", seed, got, want[seed])
		}
		if got := epsBoundaryCells(t, m, fault.DeviationUniverse(bench.Circuit, 0.20), opts); len(got) != 0 {
			t.Errorf("seed %d frac 0.20: cells on ε = %v, want none", seed, got)
		}
	}
}

// TestEngineDisagreementOnlyOnBoundary: on the paper flow at every
// benchmark fault size, the low-rank engine agrees with the default
// incremental engine on every cell except those sitting on ε, and the
// default engine's verdicts on those cells stay pinned (the benchmark's
// paper-flow golden records them).
func TestEngineDisagreementOnlyOnBoundary(t *testing.T) {
	bench := circuits.PaperBiquad()
	m, err := dft.Apply(bench.Circuit, bench.Chain)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Eps: 0.10, MeasFloor: 0.01, Region: analysis.Region{LoHz: 100, HiHz: 5600}, Points: 241}
	for _, frac := range []float64{0.10, 0.15, 0.20, 0.25, 0.30} {
		faults := fault.DeviationUniverse(bench.Circuit, frac)
		boundary := map[string]bool{}
		for _, c := range epsBoundaryCells(t, m, faults, opts) {
			boundary[c] = true
		}
		inc, err := BuildMatrix(m, faults, opts)
		if err != nil {
			t.Fatal(err)
		}
		lr := opts
		lr.Engine = EngineLowRank
		low, err := BuildMatrix(m, faults, lr)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range inc.Configs {
			for j, f := range faults {
				cell := cfg.Label() + "/" + f.ID
				if boundary[cell] {
					continue
				}
				if inc.Det[i][j] != low.Det[i][j] || math.Abs(inc.Omega[i][j]-low.Omega[i][j]) > omegaTol {
					t.Errorf("frac %.2f: engines disagree on %s off the ε boundary", frac, cell)
				}
			}
		}
		if frac != 0.10 {
			continue
		}
		j := 0
		for faults[j].ID != "fR3" {
			j++
		}
		for label, omega := range map[string]float64{"C1": 76.76, "C3": 75.52} {
			i := inc.ConfigByLabel(label)
			if !inc.Det[i][j] || math.Abs(inc.Omega[i][j]-omega) > 0.01 {
				t.Errorf("%s/fR3: det=%t ω-det=%.2f%%, want true %.2f%%", label, inc.Det[i][j], inc.Omega[i][j], omega)
			}
		}
	}
}
