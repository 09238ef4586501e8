package analogdft

// Benchmark harness: one benchmark per table and figure of the paper
// (E1–E12 in DESIGN.md) plus the ablation and scaling studies (A1–A3).
// Each benchmark drives the same code path as cmd/paperrepro; key derived
// quantities are attached as custom metrics so `go test -bench` output
// records the reproduced numbers next to the timings.

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"analogdft/internal/analysis"
	"analogdft/internal/boolexpr"
	"analogdft/internal/core"
	"analogdft/internal/detect"
	"analogdft/internal/fault"
	"analogdft/internal/paperdata"
	"analogdft/internal/report"
	"analogdft/internal/testgen"
)

// benchExperiment caches the expensive end-to-end run for the
// rendering-only benchmarks.
var (
	benchOnce sync.Once
	benchExp  *Experiment
	benchErr  error
)

func cachedExperimentB(b *testing.B) *Experiment {
	b.Helper()
	benchOnce.Do(func() { benchExp, benchErr = RunPaperExperiment() })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchExp
}

// E1 — Graph 1: ω-detectability of the initial (non-DFT) biquad.
func BenchmarkGraph1InitialOmegaDet(b *testing.B) {
	bench := PaperBiquad()
	faults := DeviationFaults(bench.Circuit, PaperFaultFraction)
	opts := PaperOptions()
	var row *Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		row, err = EvaluateCircuit(bench.Circuit, faults, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*row.FaultCoverage(), "FC%")
	b.ReportMetric(row.AvgOmegaDet(), "avg-ωdet%")
}

// E2 — Table 1: the configuration table for three configurable opamps.
func BenchmarkTable1ConfigurationTable(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = report.ConfigurationTable(3)
	}
	if len(s) == 0 {
		b.Fatal("empty table")
	}
}

// E3 — Figure 5: full fault detectability matrix construction (7
// configurations × 8 faults, 241-point sweeps).
func BenchmarkFigure5DetectabilityMatrix(b *testing.B) {
	bench := PaperBiquad()
	faults := DeviationFaults(bench.Circuit, PaperFaultFraction)
	opts := PaperOptions()
	mod, err := ApplyDFT(bench.Circuit, bench.Chain)
	if err != nil {
		b.Fatal(err)
	}
	var mx *Matrix
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mx, err = BuildMatrix(mod, faults, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*mx.FaultCoverage(), "FC%")
}

// E4 — Table 2: ω-detectability table rendering from the measured matrix.
func BenchmarkTable2OmegaDetTable(b *testing.B) {
	e := cachedExperimentB(b)
	b.ResetTimer()
	var s string
	for i := 0; i < b.N; i++ {
		s = report.OmegaTable(e.Matrix, nil)
	}
	if len(s) == 0 {
		b.Fatal("empty table")
	}
}

// E5 — Graph 2: initial vs DFT best-case ω-detectability.
func BenchmarkGraph2DFTImprovement(b *testing.B) {
	e := cachedExperimentB(b)
	initVals := make([]float64, len(e.Initial.Evals))
	for i, ev := range e.Initial.Evals {
		initVals[i] = ev.OmegaDet
	}
	b.ResetTimer()
	var s string
	for i := 0; i < b.N; i++ {
		best := e.Matrix.BestOmega(nil)
		s = report.Graph("graph 2", e.Faults.IDs(), []report.Series{
			{Name: "initial", Values: initVals},
			{Name: "DFT", Values: best},
		}, 50)
	}
	if len(s) == 0 {
		b.Fatal("empty graph")
	}
	b.ReportMetric(e.Brute.AvgOmegaDet, "dft-ωdet%")
	b.ReportMetric(e.Initial.AvgOmegaDet(), "init-ωdet%")
}

// E6 — §4.1: ξ expression derivation (essential extraction + Petrick) on
// the published Figure 5 matrix.
func BenchmarkXiExpressionDerivation(b *testing.B) {
	det := paperdata.Fig5Det
	var nTerms int
	for i := 0; i < b.N; i++ {
		expr, _, err := boolexpr.FromMatrix(det, paperdata.FaultIDs)
		if err != nil {
			b.Fatal(err)
		}
		ess := expr.Essential()
		sop, err := expr.ReduceBy(ess).Petrick(0)
		if err != nil {
			b.Fatal(err)
		}
		nTerms = len(sop.WithRequired(ess).Terms)
	}
	b.ReportMetric(float64(nTerms), "sop-terms")
}

// E7 — §4.2: configuration-count optimization on the published matrix.
func BenchmarkConfigCountOptimization(b *testing.B) {
	mx := paperdata.Matrix()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.Optimize(mx, paperdata.OpampNames, core.ConfigCountCost)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Best.NumConfigs), "configs")
	b.ReportMetric(res.Best.AvgOmegaDet, "ωdet%")
}

// E8 — Graph 3: optimized-set ω-detectability rendering.
func BenchmarkGraph3OptimizedOmegaDet(b *testing.B) {
	e := cachedExperimentB(b)
	initVals := make([]float64, len(e.Initial.Evals))
	for i, ev := range e.Initial.Evals {
		initVals[i] = ev.OmegaDet
	}
	b.ResetTimer()
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Graph("graph 3", e.Faults.IDs(), []report.Series{
			{Name: "none", Values: initVals},
			{Name: "brute", Values: e.Matrix.BestOmega(nil)},
			{Name: "opt", Values: e.Matrix.BestOmega(e.ConfigOpt.Best.Rows)},
		}, 50)
	}
	if len(s) == 0 {
		b.Fatal("empty graph")
	}
	b.ReportMetric(e.Matrix.AvgBestOmega(e.ConfigOpt.Best.Rows), "opt-ωdet%")
}

// E9 — §4.3 / Table 3: configurable-opamp optimization (ξ* mapping) on the
// published matrix.
func BenchmarkOpampCountOptimization(b *testing.B) {
	mx := paperdata.Matrix()
	var res *core.OpampResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.OptimizeOpamps(mx, paperdata.OpampNames)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Chosen)), "opamps")
	b.ReportMetric(res.AvgOmegaDet, "ωdet%")
}

// E10 — Table 4: partial-DFT matrix construction (4 configurations).
func BenchmarkTable4PartialDFTOmegaDet(b *testing.B) {
	e := cachedExperimentB(b)
	if e.Partial == nil {
		b.Fatal("no partial DFT")
	}
	opts := e.Opts
	opts.IncludeTransparent = true
	var mx *Matrix
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		mx, err = BuildMatrix(e.Partial, e.Faults, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*mx.FaultCoverage(), "FC%")
}

// E11 — Graph 4: full vs partial DFT rendering.
func BenchmarkGraph4FullVsPartialDFT(b *testing.B) {
	e := cachedExperimentB(b)
	b.ResetTimer()
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Graph("graph 4", e.Faults.IDs(), []report.Series{
			{Name: "full", Values: e.Matrix.BestOmega(nil)},
			{Name: "partial", Values: e.PartialMatrix.BestOmega(nil)},
		}, 50)
	}
	if len(s) == 0 {
		b.Fatal("empty graph")
	}
	b.ReportMetric(e.PartialMatrix.AvgBestOmega(nil), "partial-ωdet%")
}

// E12 — headline summary: the complete published-data replay (§4 end to
// end) including report rendering.
func BenchmarkHeadlineSummary(b *testing.B) {
	var pub *Published
	for i := 0; i < b.N; i++ {
		var err error
		pub, err = RunPublished()
		if err != nil {
			b.Fatal(err)
		}
		if err := pub.Report(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pub.Brute.AvgOmegaDet, "brute-ωdet%")
	b.ReportMetric(pub.ConfigOpt.Best.AvgOmegaDet, "opt-ωdet%")
	b.ReportMetric(pub.OpampOpt.AvgOmegaDet, "partial-ωdet%")
}

// A1 — ablation: exact branch-and-bound vs greedy cover on the measured
// paper matrix.
func BenchmarkAblationExactVsGreedy(b *testing.B) {
	e := cachedExperimentB(b)
	b.Run("exact", func(b *testing.B) {
		var c *Candidate
		for i := 0; i < b.N; i++ {
			var err error
			c, err = ExactMinSolution(e.Matrix, e.Bench.Chain)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(c.NumConfigs), "configs")
	})
	b.Run("greedy", func(b *testing.B) {
		var c *Candidate
		for i := 0; i < b.N; i++ {
			var err error
			c, err = GreedySolution(e.Matrix, e.Bench.Chain)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(c.NumConfigs), "configs")
	})
	b.Run("petrick", func(b *testing.B) {
		var res *Result
		for i := 0; i < b.N; i++ {
			var err error
			res, err = Optimize(e.Matrix, e.Bench.Chain, ConfigCountCost)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.Best.NumConfigs), "configs")
	})
}

// A2 — scaling of matrix construction and optimization with the number of
// configurable opamps (2^n configurations).
func BenchmarkScalingOpampCount(b *testing.B) {
	for n := 2; n <= 5; n++ {
		b.Run(fmt.Sprintf("opamps=%d", n), func(b *testing.B) {
			bench, err := MultiStageLowpass(n, 10e3)
			if err != nil {
				b.Fatal(err)
			}
			faults := DeviationFaults(bench.Circuit, 0.2)
			opts := Options{Eps: 0.10, Points: 61,
				Region: analysis.Region{LoHz: 100, HiHz: 1e6}}
			mod, err := ApplyDFT(bench.Circuit, bench.Chain)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mx, err := BuildMatrix(mod, faults, opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Optimize(mx, bench.Chain, ConfigCountCost); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// A3 — extension: minimal test-frequency selection for the optimized
// configuration set of the paper biquad.
func BenchmarkTestFrequencySelection(b *testing.B) {
	e := cachedExperimentB(b)
	var idxs []int
	for _, r := range e.ConfigOpt.Best.Rows {
		idxs = append(idxs, e.Matrix.Configs[r].Index)
	}
	var plans []*testgen.Plan
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		plans, err = testgen.PlanConfigurations(e.Modified, idxs, e.Faults, e.Matrix.Region,
			testgen.Options{Points: 121})
		if err != nil {
			b.Fatal(err)
		}
	}
	total := 0
	for _, p := range plans {
		total += p.NumFreqs()
	}
	b.ReportMetric(float64(total), "test-freqs")
}

// Micro-benchmarks for the substrate layers, used when profiling the
// matrix construction hot path.

func BenchmarkMNASolveBiquad(b *testing.B) {
	bench := PaperBiquad()
	resp, err := Sweep(bench.Circuit, SweepSpec{StartHz: 1e3, StopHz: 1e4, Points: 2})
	if err != nil || !resp.AllValid() {
		b.Fatalf("warmup: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(bench.Circuit, SweepSpec{StartHz: 1e3, StopHz: 1e4, Points: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFaultInjection(b *testing.B) {
	bench := PaperBiquad()
	f := fault.Fault{ID: "fR1", Component: "R1", Kind: fault.Deviation, Factor: 1.2}
	for i := 0; i < b.N; i++ {
		if _, err := f.Apply(bench.Circuit); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectParallelVsSerial(b *testing.B) {
	bench := PaperBiquad()
	faults := DeviationFaults(bench.Circuit, 0.2)
	mod, err := ApplyDFT(bench.Circuit, bench.Chain)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := PaperOptions()
			opts.Points = 61
			opts.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := detect.BuildMatrix(mod, faults, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildMatrix compares the fault-simulation engines on the full
// paper matrix (8 configurations × ~10 faults): the incremental engine
// patches each fault into a reusable per-configuration system, the
// low-rank engine solves each rank-1 fault via Sherman–Morrison against
// nominal factorizations cached per (configuration, ω) grid point. The
// sub-benchmarks are named "key=value", so benchdiff can track each
// engine over time and cross-compare them (-dim engine=incremental:lowrank).
func BenchmarkBuildMatrix(b *testing.B) {
	bench := PaperBiquad()
	faults := DeviationFaults(bench.Circuit, 0.2)
	mod, err := ApplyDFT(bench.Circuit, bench.Chain)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []detect.EngineMode{detect.EngineIncremental, detect.EngineLowRank} {
		b.Run(fmt.Sprintf("engine=%s", mode), func(b *testing.B) {
			opts := PaperOptions()
			opts.Points = 61
			opts.Workers = 1
			opts.Engine = mode
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := detect.BuildMatrix(mod, faults, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepGrid measures a reused engine sweeping the paper biquad
// over the calibrated Ω_reference grid: the steady-state cost of one
// matrix cell with every buffer and stamp already in place.
func BenchmarkSweepGrid(b *testing.B) {
	bench := PaperBiquad()
	eng, err := analysis.NewEngine(bench.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	grid := analysis.SweepSpec{StartHz: 100, StopHz: 5600, Points: 241}.Grid()
	if _, err := eng.SweepGrid(grid); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SweepGrid(grid); err != nil {
			b.Fatal(err)
		}
	}
}
