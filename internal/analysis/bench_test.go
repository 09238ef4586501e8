package analysis

import (
	"context"
	"fmt"
	"testing"

	"analogdft/internal/circuits"
	"analogdft/internal/fault"
	"analogdft/internal/numeric"
)

// BenchmarkSweepLowRank is the row-walk rung: one configuration (the
// functional circuit) over a 61-point grid with every fault of its 10%
// deviation universe answered by Sherman–Morrison — a chain-less basis
// fill, one factorization per point and one incidence solve per distinct
// incidence and point, then a walk of that basis on another engine, one
// answer per fault and point.
func BenchmarkSweepLowRank(b *testing.B) {
	benches := []struct {
		name  string
		bench func() (*circuits.Bench, error)
	}{
		{"paper-biquad", func() (*circuits.Bench, error) { return circuits.PaperBiquad(), nil }},
		{"multistage-lp-6", func() (*circuits.Bench, error) { return circuits.MultiStageLowpass(6, 10e3) }},
	}
	grid := numeric.LogSpace(100, 1e5, 61)
	for _, bc := range benches {
		bench, err := bc.bench()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("circuit=%s", bc.name), func(b *testing.B) {
			e, err := NewEngine(bench.Circuit)
			if err != nil {
				b.Fatal(err)
			}
			// Fill runs on the basis's own engine, so the walk has another.
			basis, err := NewBasis(bench.Circuit, nil, grid, fault.DeviationUniverse(bench.Circuit, 0.10))
			if err != nil {
				b.Fatal(err)
			}
			var row LowRankRow
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := basis.Fill(context.Background(), 0, 1); err != nil {
					b.Fatal(err)
				}
				if err := e.SweepLowRank(context.Background(), basis, nil, &row); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
