package core

import (
	"testing"

	"analogdft/internal/circuits"
)

// BenchmarkOptimizeWide times the two §4 optimizations on the wide-chain
// matrices with the largest covers (25% deviation faults, 61 points),
// built outside the timer: step=configs is Optimize under
// ConfigCountCost, step=opamps is OptimizeOpamps.
func BenchmarkOptimizeWide(b *testing.B) {
	ms6, err := circuits.MultiStageLowpass(6, 10e3)
	if err != nil {
		b.Fatal(err)
	}
	for _, bench := range []*circuits.Bench{ms6, circuits.Library()["biquad-cascade-2"]} {
		mx := wideMatrix(b, bench, 0.25)
		b.Run("bench="+bench.Circuit.Name+"/step=configs", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Optimize(mx, bench.Chain, ConfigCountCost)
				if err != nil {
					b.Fatal(err)
				}
				optimizeSink = res
			}
		})
		b.Run("bench="+bench.Circuit.Name+"/step=opamps", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := OptimizeOpamps(mx, bench.Chain)
				if err != nil {
					b.Fatal(err)
				}
				opampsSink = res
			}
		})
	}
}

// optimizeSink and opampsSink keep BenchmarkOptimizeWide's results live.
var (
	optimizeSink *Result
	opampsSink   *OpampResult
)
