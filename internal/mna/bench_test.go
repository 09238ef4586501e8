package mna

import (
	"fmt"
	"testing"

	"analogdft/internal/circuits"
	"analogdft/internal/numeric"
)

// BenchmarkSolvePoint times one frequency point of the sweep hot loop —
// assembly, factorization and back-substitution into reused buffers — on
// the CSR path the package runs (impl=csr) and on the in-test dense
// reference (impl=dense-ref: the same stamps as n×n matrices, the fused
// dense scale-add and the in-place dense LU), from the single-opamp
// benches up to the five- and six-opamp chains. The impl= segment lets
// `benchdiff -dim impl=dense-ref:csr` pair the two variants per bench.
func BenchmarkSolvePoint(b *testing.B) {
	benches := []struct {
		name  string
		bench func() (*circuits.Bench, error)
	}{
		{"sallen-key-lp", func() (*circuits.Bench, error) { return circuits.SallenKeyLowpass(), nil }},
		{"twin-t-notch", func() (*circuits.Bench, error) { return circuits.TwinTNotch(10e3) }},
		{"paper-biquad", func() (*circuits.Bench, error) { return circuits.PaperBiquad(), nil }},
		{"multistage-lp-6", func() (*circuits.Bench, error) { return circuits.MultiStageLowpass(6, 10e3) }},
		{"leapfrog-lp5", func() (*circuits.Bench, error) { return circuits.LeapfrogLowpass5(10e3) }},
	}
	grid := numeric.LogSpace(100, 1e5, 64)
	for _, bc := range benches {
		bench, err := bc.bench()
		if err != nil {
			b.Fatal(err)
		}
		driven, err := Driven(bench.Circuit)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("bench=%s/impl=csr", bc.name), func(b *testing.B) {
			sys, err := NewSystem(driven)
			if err != nil {
				b.Fatal(err)
			}
			sw, err := sys.NewSweeper(driven.Output)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sw.VoltageAt(grid[0]); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sw.VoltageAt(grid[i%len(grid)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			sw.FlushMetrics()
		})
		b.Run(fmt.Sprintf("bench=%s/impl=dense-ref", bc.name), func(b *testing.B) {
			sys, err := NewSystem(driven)
			if err != nil {
				b.Fatal(err)
			}
			ref := newDenseRef(b, sys)
			n := sys.N()
			m := numeric.NewMatrix(n, n)
			rhs := make([]complex128, n)
			pivot := make([]int, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ref.assemble(grid[i%len(grid)], m, rhs)
				lu, err := numeric.FactorInPlace(m, pivot)
				if err != nil {
					b.Fatal(err)
				}
				if err := lu.SolveInPlace(rhs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
