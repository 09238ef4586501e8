package detect

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"analogdft/internal/analysis"
	"analogdft/internal/circuits"
	"analogdft/internal/dft"
	"analogdft/internal/fault"
)

func TestShardBounds(t *testing.T) {
	cases := []struct {
		n, k int
		want [][2]int
	}{
		{0, 3, [][2]int{{0, 0}}},
		{1, 1, [][2]int{{0, 1}}},
		{5, 1, [][2]int{{0, 5}}},
		{5, 2, [][2]int{{0, 3}, {3, 5}}},
		{6, 3, [][2]int{{0, 2}, {2, 4}, {4, 6}}},
		{7, 3, [][2]int{{0, 3}, {3, 5}, {5, 7}}},
		{3, 8, [][2]int{{0, 1}, {1, 2}, {2, 3}}}, // k clamps to n
		{4, 0, [][2]int{{0, 4}}},                 // k clamps to 1
	}
	for _, c := range cases {
		got := ShardBounds(c.n, c.k)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ShardBounds(%d, %d) = %v, want %v", c.n, c.k, got, c.want)
		}
		// Ranges must tile [0, n) contiguously.
		lo := 0
		for _, b := range got {
			if b[0] != lo || b[1] < b[0] {
				t.Errorf("ShardBounds(%d, %d): range %v breaks the tiling at %d", c.n, c.k, b, lo)
			}
			lo = b[1]
		}
	}
}

func TestBuildMatrixRangeValidation(t *testing.T) {
	bench := circuits.PaperBiquad()
	m, err := dft.Apply(bench.Circuit, bench.Chain)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.DeviationUniverse(bench.Circuit, 0.2)
	opts := Options{Points: 11, Region: analysis.Region{LoHz: 100, HiHz: 5600}}
	n := len(MatrixConfigs(m, opts))
	for _, r := range [][2]int{{-1, 2}, {2, 1}, {0, n + 1}} {
		if _, err := BuildMatrixRangeContext(context.Background(), m, faults, opts, r[0], r[1]); err == nil {
			t.Errorf("range %v accepted, want error", r)
		}
	}
	if _, err := BuildMatrixRangeContext(context.Background(), m, faults, opts, 1, 1); err != nil {
		t.Errorf("empty range rejected: %v", err)
	}
}

func TestMergeShardsRejectsMismatches(t *testing.T) {
	if _, err := MergeShards(nil); err == nil {
		t.Error("empty merge accepted")
	}
	a := &Matrix{Source: "a", Region: analysis.Region{LoHz: 1, HiHz: 2}}
	b := &Matrix{Source: "b", Region: analysis.Region{LoHz: 1, HiHz: 2}}
	if _, err := MergeShards([]*Matrix{a, b}); err == nil {
		t.Error("source mismatch accepted")
	}
	c := &Matrix{Source: "a", Region: analysis.Region{LoHz: 1, HiHz: 3}}
	if _, err := MergeShards([]*Matrix{a, c}); err == nil {
		t.Error("region mismatch accepted")
	}
	if _, err := MergeShards([]*Matrix{a, nil}); err == nil {
		t.Error("nil shard accepted")
	}
}

// TestShardedMatrixByteIdentical pins the acceptance criterion: for the
// paper biquad, a matrix assembled from configuration-range shards is
// byte-identical (Det, Omega, configs, errors, summed stats — everything
// except wall-clock Elapsed) to the unsharded build, across all three
// engines and several shard counts.
func TestShardedMatrixByteIdentical(t *testing.T) {
	bench := circuits.PaperBiquad()
	m, err := dft.Apply(bench.Circuit, bench.Chain)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.DeviationUniverse(bench.Circuit, 0.2)
	base := Options{
		Eps:       0.10,
		MeasFloor: 0.01,
		Region:    analysis.Region{LoHz: 100, HiHz: 5600},
		Points:    31,
	}
	for _, mode := range []EngineMode{engineClone, EngineIncremental, EngineLowRank} {
		opts := base
		opts.Engine = mode
		label := mode.String()
		ref, err := BuildMatrixContext(context.Background(), m, faults, opts)
		if err != nil {
			t.Fatalf("%s: unsharded build: %v", label, err)
		}
		for _, k := range []int{2, 3, len(ref.Configs)} {
			bounds := ShardBounds(len(MatrixConfigs(m, opts)), k)
			parts := make([]*Matrix, len(bounds))
			for i, b := range bounds {
				parts[i], err = BuildMatrixRangeContext(context.Background(), m, faults, opts, b[0], b[1])
				if err != nil {
					t.Fatalf("%s k=%d: shard %v: %v", label, k, b, err)
				}
			}
			got, err := MergeShards(parts)
			if err != nil {
				t.Fatalf("%s k=%d: merge: %v", label, k, err)
			}
			requireSameMatrix(t, fmt.Sprintf("%s k=%d", label, k), got, ref)
		}
	}
}

// requireSameMatrix fails unless got and ref agree exactly — bitwise on
// every Det and Omega cell — modulo the wall-clock Elapsed field.
func requireSameMatrix(t *testing.T, label string, got, ref *Matrix) {
	t.Helper()
	if got.Source != ref.Source || got.Region != ref.Region {
		t.Fatalf("%s: source/region %q %v vs %q %v", label, got.Source, got.Region, ref.Source, ref.Region)
	}
	if len(got.Configs) != len(ref.Configs) || len(got.Faults) != len(ref.Faults) {
		t.Fatalf("%s: shape %dx%d vs %dx%d", label, len(got.Configs), len(got.Faults), len(ref.Configs), len(ref.Faults))
	}
	for i := range ref.Configs {
		if got.Configs[i].Label() != ref.Configs[i].Label() {
			t.Fatalf("%s: row %d is %s, want %s", label, i, got.Configs[i].Label(), ref.Configs[i].Label())
		}
		if !reflect.DeepEqual(got.Det[i], ref.Det[i]) {
			t.Errorf("%s: Det row %d differs", label, i)
		}
		if !reflect.DeepEqual(got.Omega[i], ref.Omega[i]) {
			t.Errorf("%s: Omega row %d not bit-identical", label, i)
		}
	}
	if len(got.CellErrors) != len(ref.CellErrors) {
		t.Errorf("%s: %d cell errors, want %d", label, len(got.CellErrors), len(ref.CellErrors))
	}
	for i := range got.CellErrors {
		if i < len(ref.CellErrors) && got.CellErrors[i].Error() != ref.CellErrors[i].Error() {
			t.Errorf("%s: cell error %d = %v, want %v", label, i, got.CellErrors[i], ref.CellErrors[i])
		}
	}
	gs, rs := got.Stats, ref.Stats
	gs.Elapsed, rs.Elapsed = 0, 0
	if gs != rs {
		t.Errorf("%s: stats %+v, want %+v", label, gs, rs)
	}
}
