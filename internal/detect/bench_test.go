package detect

import (
	"context"
	"fmt"
	"testing"

	"analogdft/internal/analysis"
	"analogdft/internal/circuit"
	"analogdft/internal/circuits"
	"analogdft/internal/dft"
	"analogdft/internal/fault"
)

// BenchmarkRowWalk is the row-sweep rung of a matrix build: every
// configuration row of the bench's 20% deviation matrix at 61 points on
// one worker — each row's walk of the shared functional basis and its
// cell tail — with the region derived and the basis filled outside the
// timer.
func BenchmarkRowWalk(b *testing.B) {
	for _, bc := range []struct {
		name  string
		bench func() (*circuits.Bench, error)
	}{
		{"paper-biquad", func() (*circuits.Bench, error) { return circuits.PaperBiquad(), nil }},
		{"multistage-lp-6", func() (*circuits.Bench, error) { return circuits.MultiStageLowpass(6, 10e3) }},
	} {
		b.Run(fmt.Sprintf("bench=%s", bc.name), func(b *testing.B) {
			bench, err := bc.bench()
			if err != nil {
				b.Fatal(err)
			}
			m, err := dft.Apply(bench.Circuit, bench.Chain)
			if err != nil {
				b.Fatal(err)
			}
			faults := fault.DeviationUniverse(bench.Circuit, 0.20)
			opts := Options{Points: 61, Workers: 1}.Normalize()
			functional, err := m.Configure(dft.Configuration{Index: 0, N: m.N()})
			if err != nil {
				b.Fatal(err)
			}
			region, err := resolveRegion(functional, opts)
			if err != nil {
				b.Fatal(err)
			}
			grid := region.Spec(opts.Points).Grid()
			configs := matrixConfigs(m, opts)
			basis, err := newBasis(context.Background(), functional, m.Chain, grid, faults, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rr := newRowRunner(len(configs), faults, opts, matrixRows(m, configs, grid, opts))
				rr.basis = basis
				if _, _, err := rr.run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFaultKinds is the matrix rung of the fault kinds that are not
// deviations: every configuration row of the paper biquad under its
// catastrophic universe (an open and a short on every passive), and of
// the paper biquad on single-pole opamps (A0 1e5, pole 10 Hz) under its
// opamp universe (A0 and pole ×0.01 on every opamp). Each builds the
// whole matrix at the default points over the paper's region on one
// worker.
func BenchmarkFaultKinds(b *testing.B) {
	singlePole := func() *circuits.Bench {
		bench := circuits.PaperBiquad()
		for _, op := range bench.Circuit.Opamps() {
			op.Model, op.A0, op.PoleHz = circuit.ModelSinglePole, 1e5, 10
		}
		return bench
	}
	for _, uc := range []struct {
		name     string
		bench    *circuits.Bench
		universe func(*circuit.Circuit) fault.List
	}{
		{"catastrophic", circuits.PaperBiquad(), fault.CatastrophicUniverse},
		{"opamp", singlePole(), func(ckt *circuit.Circuit) fault.List { return fault.OpampUniverse(ckt, 0.01, 0.01) }},
	} {
		b.Run(fmt.Sprintf("universe=%s", uc.name), func(b *testing.B) {
			m, err := dft.Apply(uc.bench.Circuit, uc.bench.Chain)
			if err != nil {
				b.Fatal(err)
			}
			faults := uc.universe(uc.bench.Circuit)
			opts := Options{Eps: 0.10, MeasFloor: 0.01, Region: analysis.Region{LoHz: 100, HiHz: 5600}, Workers: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BuildMatrix(m, faults, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
