package detect

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"analogdft/internal/analysis"
	"analogdft/internal/circuits"
	"analogdft/internal/dft"
	"analogdft/internal/fault"
	"analogdft/internal/netgen"
	"analogdft/internal/obs"
)

// omegaTol bounds the allowed |Δω-det| between the row walk and the clone
// reference. Both count threshold crossings on the same grid, so any
// drift beyond floating-point noise is an engine bug, not measurement
// noise.
const omegaTol = 1e-12

// requireEquivalent builds the matrix across worker counts against the
// clone reference — every cell cloned and rebuilt, Workers=1 — and fails
// on any difference: Det must be bit-identical, Omega within omegaTol,
// and the cell error sets must agree position by position.
func requireEquivalent(t *testing.T, m *dft.Modified, faults fault.List, opts Options) {
	t.Helper()
	clone := opts
	clone.first = rungClone
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
	for _, workers := range []int{1, 4} {
		fast := opts
		fast.Workers = workers
		label := fmt.Sprintf("workers=%d", workers)
		got, err := BuildMatrix(m, faults, fast)
		if err != nil {
			t.Fatalf("%s build: %v", label, err)
		}
		check(label, got)
	}
}

// TestEngineEquivalenceBiquad checks the paper's own circuit: the full
// matrix with the calibrated region.
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
// patch rung cannot express) into the universe: every such cell
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

// generatedCase is TestEngineEquivalenceGenerated's case for seed: a
// random two-stage active-RC circuit under DFT, its 20% deviation
// universe, and 21 points over a pinned region.
func generatedCase(t *testing.T, seed int64) (*dft.Modified, fault.List, Options) {
	t.Helper()
	spec := netgen.Spec{Stages: 2, Seed: seed, AllowBiquad: seed%3 == 0}
	bench, err := netgen.Random(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dft.Apply(bench.Circuit, bench.Chain)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Region: analysis.Region{LoHz: 100, HiHz: 1e6},
		Points: 21,
	}
	return m, fault.DeviationUniverse(bench.Circuit, 0.2), opts
}

// TestEngineEquivalenceGenerated fuzzes the equivalence over 20 random
// stable active-RC circuits: for every generated netlist the row walk
// and the clone reference must produce bit-identical Det matrices and Omega
// values within omegaTol, for multiple worker counts.
func TestEngineEquivalenceGenerated(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			m, faults, opts := generatedCase(t, seed)
			requireEquivalent(t, m, faults, opts)
		})
	}
}

// TestEngineEquivalencePerConfigRegion holds PerConfigRegion matrices,
// whose rows each read a basis of their own matrix over their own grid,
// to the clone reference on three library benches at 61 points, every
// region derived. Each bench must have a row whose region is its own,
// off the functional configuration's grid.
func TestEngineEquivalencePerConfigRegion(t *testing.T) {
	lib := circuits.Library()
	for _, name := range []string{"paper-biquad", "khn-state-variable", "multistage-lp-4"} {
		t.Run(name, func(t *testing.T) {
			bench := lib[name]
			m, err := dft.Apply(bench.Circuit, bench.Chain)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Points: 61, PerConfigRegion: true}
			norm := opts.Normalize()
			functional, err := m.Configure(dft.Configuration{Index: 0, N: m.N()})
			if err != nil {
				t.Fatal(err)
			}
			region, err := resolveRegion(functional, norm)
			if err != nil {
				t.Fatal(err)
			}
			shared := region.Spec(norm.Points).Grid()
			configs := matrixConfigs(m, norm)
			own := 0
			for _, cfg := range configs {
				ckt, err := m.Configure(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if r, err := analysis.ReferenceRegion(ckt, norm.Probe); err == nil && !slices.Equal(r.Spec(norm.Points).Grid(), shared) {
					own++
				}
			}
			t.Logf("%d of %d rows on a region of their own", own, len(configs))
			if own == 0 {
				t.Fatal("every row is on the shared grid: the per-row bases are not exercised")
			}
			requireEquivalent(t, m, fault.DeviationUniverse(bench.Circuit, 0.2), opts)
		})
	}
}

// TestFollowerFallbackResolvedUnderPatch keeps the row walk's one
// fallback covered: on generated seed 6 some follower row meets grid
// points the functional basis cannot answer (A₀ singular there, or K_S
// refused by its screen). There the row solves its own nominal and leaves
// every rank-1 answer invalid, and its tail re-solves those answers under
// the patch (engine_lowrank_refactor_total). The matrix must still match
// the clone reference.
func TestFollowerFallbackResolvedUnderPatch(t *testing.T) {
	m, faults, opts := generatedCase(t, 6)
	norm := opts.Normalize()
	ctx := context.Background()
	functional, err := m.Configure(dft.Configuration{Index: 0, N: m.N()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBasis(ctx, functional, m.Chain, opts.Region.Spec(norm.Points).Grid(), faults, 1)
	if err != nil {
		t.Fatal(err)
	}
	rank1 := 0
	for _, s := range b.Slots() {
		if s >= 0 {
			rank1++
		}
	}
	factored := 0
	for _, cfg := range matrixConfigs(m, norm) {
		var followers []int
		for a := range m.Chain {
			if cfg.Follower(a) {
				followers = append(followers, a)
			}
		}
		if len(followers) == 0 {
			continue
		}
		ckt, err := m.Configure(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := analysis.NewEngine(ckt)
		if err != nil {
			t.Fatal(err)
		}
		var walk analysis.LowRankRow
		if err := eng.SweepLowRank(ctx, b, followers, &walk); err != nil {
			t.Fatalf("%s: %v", cfg.Label(), err)
		}
		factored += walk.Factored
	}
	if factored == 0 {
		t.Fatal("no follower row met a point the basis cannot answer: the fallback is not exercised")
	}
	refactors := func() float64 { return obs.Reg().Snapshot()["engine_lowrank_refactor_total"].Value }
	before := refactors()
	if _, err := BuildMatrix(m, faults, opts); err != nil {
		t.Fatal(err)
	}
	if d := int(refactors() - before); d < factored*rank1 {
		t.Errorf("re-solved %d rank-1 points under the patch, want at least %d = %d unanswerable points × %d rank-1 faults",
			d, factored*rank1, factored, rank1)
	}
	t.Logf("%d unanswerable follower-row points, %d rank-1 faults", factored, rank1)
	requireEquivalent(t, m, faults, opts)
}
