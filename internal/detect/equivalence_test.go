package detect

import (
	"fmt"
	"math"
	"testing"

	"analogdft/internal/analysis"
	"analogdft/internal/circuits"
	"analogdft/internal/dft"
	"analogdft/internal/fault"
	"analogdft/internal/netgen"
)

// omegaTol bounds the allowed |Δω-det| between engine modes. Both modes
// count threshold crossings on the same grid, so any drift beyond
// floating-point noise is an engine bug, not measurement noise.
const omegaTol = 1e-12

// requireEquivalent builds the matrix in every engine mode, across worker
// counts, against the clone reference — every cell cloned and rebuilt,
// Workers=1 — and fails on any difference: Det must be bit-identical,
// Omega within omegaTol, and the cell error sets must agree position by
// position.
func requireEquivalent(t *testing.T, m *dft.Modified, faults fault.List, opts Options) {
	t.Helper()
	clone := opts
	clone.Engine = engineClone
	clone.Workers = 1
	ref, err := BuildMatrix(m, faults, clone)
	if err != nil {
		t.Fatalf("clone build: %v", err)
	}
	check := func(label string, got *Matrix) {
		t.Helper()
		if got.NumConfigs() != ref.NumConfigs() || got.NumFaults() != ref.NumFaults() {
			t.Fatalf("%s: shape %dx%d vs clone %dx%d", label,
				got.NumConfigs(), got.NumFaults(), ref.NumConfigs(), ref.NumFaults())
		}
		for i := range ref.Det {
			for j := range ref.Det[i] {
				if got.Det[i][j] != ref.Det[i][j] {
					t.Errorf("%s: Det[%d][%d] = %t, clone %t (fault %s, config %s)",
						label, i, j, got.Det[i][j], ref.Det[i][j],
						faults[j].ID, ref.Configs[i].Label())
				}
				if d := math.Abs(got.Omega[i][j] - ref.Omega[i][j]); d > omegaTol {
					t.Errorf("%s: Omega[%d][%d] differs by %g (got %g, clone %g)",
						label, i, j, d, got.Omega[i][j], ref.Omega[i][j])
				}
			}
		}
		if len(got.CellErrors) != len(ref.CellErrors) {
			t.Errorf("%s: %d cell errors, clone %d", label, len(got.CellErrors), len(ref.CellErrors))
		}
	}
	for _, mode := range []EngineMode{EngineIncremental, EngineLowRank} {
		for _, workers := range []int{1, 4} {
			fast := opts
			fast.Engine = mode
			fast.Workers = workers
			label := fmt.Sprintf("%s/workers=%d", mode, workers)
			got, err := BuildMatrix(m, faults, fast)
			if err != nil {
				t.Fatalf("%s build: %v", label, err)
			}
			check(label, got)
		}
	}
}

// TestEngineEquivalenceBiquad checks the paper's own circuit: the full
// 8-configuration matrix with the calibrated region, in both engine modes.
func TestEngineEquivalenceBiquad(t *testing.T) {
	bench := circuits.PaperBiquad()
	m, err := dft.Apply(bench.Circuit, bench.Chain)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.DeviationUniverse(bench.Circuit, 0.2)
	opts := Options{
		Eps:       0.10,
		MeasFloor: 0.01,
		Region:    analysis.Region{LoHz: 100, HiHz: 5600},
		Points:    61,
	}
	requireEquivalent(t, m, faults, opts)
}

// TestEngineEquivalenceFallback mixes catastrophic faults (which the
// incremental engine cannot patch) into the universe: every such cell
// must fall back to the clone rung and still agree exactly.
func TestEngineEquivalenceFallback(t *testing.T) {
	bench := circuits.PaperBiquad()
	m, err := dft.Apply(bench.Circuit, bench.Chain)
	if err != nil {
		t.Fatal(err)
	}
	faults := append(fault.DeviationUniverse(bench.Circuit, 0.2),
		fault.Fault{ID: "R1:open", Component: "R1", Kind: fault.Open},
		fault.Fault{ID: "C1:short", Component: "C1", Kind: fault.Short},
		fault.Fault{ID: "OP2:gain", Component: "OP2", Kind: fault.OpampGain, Factor: 0.01},
	)
	opts := Options{
		Eps:       0.10,
		MeasFloor: 0.01,
		Region:    analysis.Region{LoHz: 100, HiHz: 5600},
		Points:    31,
	}
	requireEquivalent(t, m, faults, opts)
}

// TestEngineEquivalenceGenerated fuzzes the equivalence over 20 random
// stable active-RC circuits: for every generated netlist the incremental
// engine and the clone reference must produce bit-identical Det matrices and Omega
// values within omegaTol, for multiple worker counts.
func TestEngineEquivalenceGenerated(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			spec := netgen.Spec{Stages: 2, Seed: seed, AllowBiquad: seed%3 == 0}
			bench, err := netgen.Random(spec)
			if err != nil {
				t.Fatal(err)
			}
			m, err := dft.Apply(bench.Circuit, bench.Chain)
			if err != nil {
				t.Fatal(err)
			}
			faults := fault.DeviationUniverse(bench.Circuit, 0.2)
			opts := Options{
				Region: analysis.Region{LoHz: 100, HiHz: 1e6},
				Points: 21,
			}
			requireEquivalent(t, m, faults, opts)
		})
	}
}
