package analogdft

import (
	"context"
	"fmt"
	"io"
	"math"

	"analogdft/internal/analysis"
	"analogdft/internal/core"
	"analogdft/internal/detect"
	"analogdft/internal/fault"
	"analogdft/internal/obs"
	"analogdft/internal/paperdata"
	"analogdft/internal/report"
)

// PaperOptions are the calibrated testability-evaluation settings for the
// paper experiment on the built-in biquad: the paper's tolerance ε = 10%,
// a −40 dB measurement floor, and Ω_reference pinned to the biquad's
// measurable passband [100 Hz, 5.6 kHz] (f0/100 up to the onset of the
// resonance peak). With these settings the functional configuration
// detects exactly {fR1, fR4} — the paper's 25% initial fault coverage —
// while the multi-configuration DFT reaches 100%.
//
// DESIGN.md §2 documents the calibration: the paper does not publish its
// component values or measurement floor, so the region is the one free
// parameter fitted to reproduce the §2 result; everything downstream is
// measured, not fitted.
func PaperOptions() Options {
	return Options{
		Eps:       0.10,
		MeasFloor: 0.01,
		Region:    Region{LoHz: 100, HiHz: 5600},
		Points:    241,
	}
}

// PaperFaultFraction is the paper's soft-fault size: 20% deviations.
const PaperFaultFraction = 0.20

// Experiment is a fully executed paper experiment sequence on a circuit:
// initial testability (§2), multi-configuration matrix (§3), configuration
// optimization (§4.1–4.2) and partial-DFT optimization (§4.3).
type Experiment struct {
	// Bench is the circuit under test with its DFT chain.
	Bench *Bench
	// Faults is the fault universe.
	Faults FaultList
	// FaultSize is the largest relative value deviation in Faults (0.20
	// for the paper's +20% faults).
	FaultSize float64
	// Opts are the evaluation options used throughout.
	Opts Options
	// Initial is the §2 evaluation of the unmodified circuit (Graph 1).
	Initial *Row
	// Modified is the fully DFT-modified circuit.
	Modified *Modified
	// Matrix is the fault detectability matrix (Figure 5 / Table 2).
	Matrix *Matrix
	// Brute is the all-configurations baseline (Graph 2).
	Brute *Baseline
	// ConfigOpt is the §4.1–4.2 configuration-count optimization.
	ConfigOpt *Result
	// OpampOpt is the §4.3 configurable-opamp optimization.
	OpampOpt *OpampResult
	// Partial is the partial-DFT circuit built from OpampOpt.Chosen.
	Partial *Modified
	// PartialMatrix is the Table 4 matrix of the partial-DFT circuit.
	PartialMatrix *Matrix
	// PartialReused reports that PartialMatrix holds copies of Matrix rows
	// instead of simulated ones (DESIGN.md §17): every partial
	// configuration emulates the same circuit as the full configuration
	// with the same followers. Its Stats are then zero.
	PartialReused bool
	// PartialMissed lists the faults OpampOpt counts as covered that
	// PartialMatrix does not detect. OpampOpt predicts from full-matrix
	// rows; when the chosen opamps are not a prefix of the test chain,
	// SubChain rewires their test inputs and the simulated partial DFT
	// can fall short of the prediction.
	PartialMissed []string
}

// Run executes the full experiment sequence on a bench with the paper's
// single-sided deviation faults of size frac.
func Run(bench *Bench, frac float64, opts Options) (*Experiment, error) {
	return RunFaults(bench, DeviationFaults(bench.Circuit, frac), opts)
}

// RunFaults executes the full experiment sequence on a bench against the
// given fault universe, so every matrix, optimization and report series
// shares one fault list (e.g. BipolarDeviationFaults).
func RunFaults(bench *Bench, faults FaultList, opts Options) (*Experiment, error) {
	if err := bench.Validate(); err != nil {
		return nil, err
	}
	_, span := obs.Start(context.Background(), "experiment.run")
	span.SetTag("circuit", bench.Circuit.Name)
	defer span.End()
	e := &Experiment{
		Bench:     bench,
		Faults:    faults,
		FaultSize: faultSize(faults),
		Opts:      opts,
	}
	var err error
	if e.Initial, err = EvaluateCircuit(bench.Circuit, e.Faults, opts); err != nil {
		return nil, fmt.Errorf("initial evaluation: %w", err)
	}
	if e.Modified, err = ApplyDFT(bench.Circuit, bench.Chain); err != nil {
		return nil, err
	}
	if e.Matrix, err = BuildMatrix(e.Modified, e.Faults, opts); err != nil {
		return nil, fmt.Errorf("matrix construction: %w", err)
	}
	_, optSpan := obs.Start(context.Background(), "experiment.optimize")
	e.Brute = BruteForce(e.Matrix)
	if e.ConfigOpt, err = Optimize(e.Matrix, bench.Chain, ConfigCountCost); err != nil {
		optSpan.End()
		return nil, fmt.Errorf("configuration optimization: %w", err)
	}
	if e.OpampOpt, err = OptimizeOpamps(e.Matrix, bench.Chain); err != nil {
		optSpan.End()
		return nil, fmt.Errorf("opamp optimization: %w", err)
	}
	optSpan.End()
	// Build the partial-DFT circuit and its Table 4 matrix. An empty
	// chosen set means the functional configuration already covers
	// everything; the partial matrix degenerates to row C0 of the full
	// matrix and is left nil.
	if len(e.OpampOpt.Chosen) > 0 {
		if e.Partial, err = e.Modified.SubChain(e.OpampOpt.Chosen); err != nil {
			return nil, err
		}
		popts := opts
		// The partial chain's all-follower configuration is not the
		// transparent identity unless every opamp is in the chain; keep it.
		popts.IncludeTransparent = len(e.OpampOpt.Chosen) < len(e.Modified.AllOpamps)
		e.PartialMatrix, e.PartialReused = liftMatrix(e.Matrix, e.Modified, e.Partial, popts)
		if !e.PartialReused {
			if e.PartialMatrix, err = BuildMatrix(e.Partial, e.Faults, popts); err != nil {
				return nil, fmt.Errorf("partial matrix: %w", err)
			}
		}
		e.PartialMissed = missedFaults(e.Matrix, e.OpampOpt.UsableRows, e.PartialMatrix)
	}
	return e, nil
}

// liftMatrix assembles the matrix BuildMatrix(sub, full.Faults, opts)
// would simulate from copies of full's rows, where full is m's matrix
// built with the same faults and options (IncludeTransparent aside) and
// sub comes from m.SubChain. ok is false, and the caller must simulate,
// when some row of sub does not lift onto a row of full.
func liftMatrix(full *Matrix, m, sub *Modified, opts Options) (mx *Matrix, ok bool) {
	configs := detect.MatrixConfigs(sub, opts)
	rows := make([]int, len(configs))
	relabel := make(map[Configuration]Configuration, len(configs))
	for k, cfg := range configs {
		lifted, ok := m.Lift(sub, cfg)
		if !ok {
			return nil, false
		}
		if rows[k] = full.ConfigByLabel(lifted.Label()); rows[k] < 0 {
			return nil, false
		}
		relabel[lifted] = cfg
	}
	mx, err := full.SubMatrix(rows)
	if err != nil {
		return nil, false
	}
	mx.Configs = configs
	for i := range mx.CellErrors {
		mx.CellErrors[i].Config = relabel[mx.CellErrors[i].Config]
	}
	return mx, true
}

// missedFaults lists the faults some usable row of full detects that no
// row of partial does.
func missedFaults(full *Matrix, usable []int, partial *Matrix) []string {
	var out []string
	for j, f := range full.Faults {
		predicted := false
		for _, i := range usable {
			predicted = predicted || full.Det[i][j]
		}
		if predicted && !partial.DetectableAnywhere(j) {
			out = append(out, f.ID)
		}
	}
	return out
}

// deviationSign renders the direction of l's deviation faults: "+" when
// every one raises its component value, "−" when every one lowers it and
// "±" for a mix.
func deviationSign(l FaultList) string {
	up, down := false, false
	for _, f := range l {
		if f.Kind == fault.Deviation {
			up = up || f.Factor > 1
			down = down || f.Factor < 1
		}
	}
	switch {
	case up && down:
		return "±"
	case down:
		return "−"
	}
	return "+"
}

// faultSize returns the largest relative value deviation among the
// deviation faults of l.
func faultSize(l FaultList) float64 {
	size := 0.0
	for _, f := range l {
		if f.Kind == fault.Deviation {
			size = math.Max(size, math.Abs(f.Factor-1))
		}
	}
	return size
}

// RunPaperExperiment runs the complete paper sequence on the built-in
// biquadratic filter with the calibrated PaperOptions.
func RunPaperExperiment() (*Experiment, error) {
	return Run(PaperBiquad(), PaperFaultFraction, PaperOptions())
}

// labelName renders configuration row i of a matrix for expressions.
func labelName(mx *Matrix) func(int) string {
	return func(i int) string {
		if i >= 0 && i < len(mx.Configs) {
			return mx.Configs[i].Label()
		}
		return fmt.Sprintf("C?%d", i)
	}
}

// Report writes the full experiment report — every table and graph of the
// paper regenerated from this run — to w.
func (e *Experiment) Report(w io.Writer) error {
	p := func(format string, args ...interface{}) { fmt.Fprintf(w, format, args...) }
	faultIDs := e.Faults.IDs()

	p("%s\n", report.Rule("Multi-configuration DFT optimization — "+e.Bench.Circuit.Name))
	p("%s\n", e.Bench.Description)
	p("fault universe: %d soft faults (%s%.0f%% deviations); ε = %.0f%%; Ω_reference = %s\n\n",
		len(e.Faults), deviationSign(e.Faults), 100*e.FaultSize, 100*e.Opts.Eps, e.Initial.Region)

	p("%s\n", report.Rule("Table 1: configuration table"))
	p("%s\n", report.ConfigurationTable(e.Modified.N()))

	p("%s\n", report.Rule("Graph 1: ω-detectability of the initial circuit"))
	initVals := make([]float64, len(e.Initial.Evals))
	for i, ev := range e.Initial.Evals {
		initVals[i] = ev.OmegaDet
	}
	p("%s\n", report.Graph("initial circuit (no DFT)", faultIDs,
		[]report.Series{{Name: "initial", Values: initVals, Mark: '█'}}, 50))
	p("%s\n\n", report.CoverageSummary("initial circuit", e.Initial.FaultCoverage(), e.Initial.AvgOmegaDet(), 1))

	p("%s\n", report.Rule("Figure 5: fault detectability matrix"))
	p("%s\n", report.DetMatrixTable(e.Matrix))

	p("%s\n", report.Rule("Table 2: ω-detectability table"))
	p("%s\n", report.OmegaTable(e.Matrix, nil))

	p("%s\n", report.Rule("Graph 2: initial vs DFT-modified (best case)"))
	p("%s\n", report.Graph("testability improvement", faultIDs, []report.Series{
		{Name: "initial", Values: initVals, Mark: '█'},
		{Name: "DFT", Values: e.Matrix.BestOmega(nil), Mark: '░'},
	}, 50))
	p("%s\n", report.CoverageSummary("DFT-modified (brute force)", e.Brute.Coverage, e.Brute.AvgOmegaDet, e.Brute.NumConfigs))

	p("\n%s\n", report.Rule("§4.1: fundamental requirement"))
	name := labelName(e.Matrix)
	p("ξ       = %s\n", e.ConfigOpt.Expr.Format(name))
	ess := "none"
	if len(e.ConfigOpt.EssentialRows) > 0 {
		ess = ""
		for i, r := range e.ConfigOpt.EssentialRows {
			if i > 0 {
				ess += ", "
			}
			ess += name(r)
		}
	}
	p("essential configurations: %s\n", ess)
	p("ξ_compl = %s\n", e.ConfigOpt.Reduced.Format(name))
	p("ξ (SOP) = %s\n", e.ConfigOpt.SOP.Format(name))
	if len(e.ConfigOpt.Undetectable) > 0 {
		p("undetectable faults: %v\n", e.ConfigOpt.Undetectable)
	}
	p("maximum fault coverage: %.1f%%\n\n", 100*e.ConfigOpt.MaxCoverage)

	p("%s\n", report.Rule("§4.2: configuration-count optimization"))
	for _, c := range e.ConfigOpt.Candidates {
		p("  candidate %s\n", c.String())
	}
	p("2nd-order requirement: %s\n", e.ConfigOpt.CostName)
	p("3rd-order tie-break:   maximum ⟨ω-det⟩\n")
	p("optimal set: %s\n\n", e.ConfigOpt.Best.String())

	p("%s\n", report.Rule("Graph 3: optimized DFT"))
	p("%s\n", report.Graph("no DFT vs brute force vs optimized", faultIDs, []report.Series{
		{Name: "none", Values: initVals, Mark: '█'},
		{Name: "brute", Values: e.Matrix.BestOmega(nil), Mark: '░'},
		{Name: "opt", Values: e.Matrix.BestOmega(e.ConfigOpt.Best.Rows), Mark: '▒'},
	}, 50))

	p("%s\n", report.Rule("§4.3: configurable-opamp optimization"))
	p("Table 3 mapping (configuration → follower opamps):\n")
	for _, cfg := range e.Matrix.Configs {
		p("  %-4s %v\n", cfg.Label(), core.FollowerOpampsOf(cfg, e.Modified.Chain))
	}
	opName := func(i int) string {
		if i < len(e.Modified.Chain) {
			return e.Modified.Chain[i]
		}
		return fmt.Sprintf("OP?%d", i)
	}
	p("ξ* = %s\n", e.OpampOpt.XiStar.Format(opName))
	p("minimal configurable-opamp sets: %v\n", e.OpampOpt.OpampSets)
	p("chosen: %v → usable configurations %v\n", e.OpampOpt.Chosen, e.OpampOpt.UsableLabels)
	p("%s\n\n", report.CoverageSummary("partial DFT", e.OpampOpt.Coverage, e.OpampOpt.AvgOmegaDet, len(e.OpampOpt.UsableRows)))

	if e.PartialMatrix != nil {
		p("%s\n", report.Rule("Table 4: partial-DFT ω-detectability"))
		vectors := make([]string, e.PartialMatrix.NumConfigs())
		for i, cfg := range e.PartialMatrix.Configs {
			vectors[i] = e.Partial.MaskVector(cfg)
		}
		p("%s\n", report.OmegaTable(e.PartialMatrix, vectors))

		p("%s\n", report.Rule("Graph 4: full vs partial DFT"))
		p("%s\n", report.Graph("full vs partial DFT (best case)", faultIDs, []report.Series{
			{Name: "full", Values: e.Matrix.BestOmega(nil), Mark: '█'},
			{Name: "partial", Values: e.PartialMatrix.BestOmega(nil), Mark: '░'},
		}, 50))
		if len(e.PartialMissed) > 0 {
			p("warning: the simulated partial DFT covers %.1f%% of the faults, below the %.1f%% §4.3 predicts; missed %v.\n",
				100*e.PartialMatrix.FaultCoverage(), 100*e.OpampOpt.Coverage, e.PartialMissed)
			p("The prediction reads full-DFT rows, but %v is not a prefix of the test chain %v,\n", e.OpampOpt.Chosen, e.Modified.Chain)
			p("so the partial chain rewires test inputs and its follower configurations emulate other circuits.\n\n")
		}
	}

	p("%s\n", report.Rule("Headline summary"))
	p("%s\n", report.CoverageSummary("initial circuit", e.Initial.FaultCoverage(), e.Initial.AvgOmegaDet(), 1))
	p("%s\n", report.CoverageSummary("brute-force DFT", e.Brute.Coverage, e.Brute.AvgOmegaDet, e.Brute.NumConfigs))
	p("%s\n", report.CoverageSummary("optimized configurations", e.ConfigOpt.Best.Coverage, e.ConfigOpt.Best.AvgOmegaDet, e.ConfigOpt.Best.NumConfigs))
	p("%s\n", report.CoverageSummary("partial DFT", e.OpampOpt.Coverage, e.OpampOpt.AvgOmegaDet, len(e.OpampOpt.UsableRows)))
	return nil
}

// Published is the §4 optimization replayed on the matrices printed in
// the paper itself; every derived quantity must match the paper exactly.
type Published struct {
	// Matrix wraps Figure 5 + Table 2.
	Matrix *Matrix
	// ConfigOpt is the §4.1–4.2 result (best = {C2, C5}, 32.5%).
	ConfigOpt *Result
	// OpampOpt is the §4.3 result (OP1·OP2, 52.5%).
	OpampOpt *OpampResult
	// Brute is the brute-force baseline (68.25%, printed 68.3%).
	Brute *Baseline
}

// RunPublished replays the optimization pipeline on the paper's published
// data.
func RunPublished() (*Published, error) {
	mx := paperdata.Matrix()
	cfg, err := core.Optimize(mx, paperdata.OpampNames, core.ConfigCountCost)
	if err != nil {
		return nil, err
	}
	op, err := core.OptimizeOpamps(mx, paperdata.OpampNames)
	if err != nil {
		return nil, err
	}
	return &Published{
		Matrix:    mx,
		ConfigOpt: cfg,
		OpampOpt:  op,
		Brute:     core.BruteForce(mx),
	}, nil
}

// Report writes the published-data reproduction (tables, expressions and
// headline numbers, annotated with the paper's expected values) to w.
func (p *Published) Report(w io.Writer) error {
	f := func(format string, args ...interface{}) { fmt.Fprintf(w, format, args...) }
	name := labelName(p.Matrix)

	f("%s\n", report.Rule("Published data reproduction (Figure 5 / Table 2)"))
	f("%s\n", report.DetMatrixTable(p.Matrix))
	f("%s\n", report.OmegaTable(p.Matrix, nil))
	f("ξ (SOP)  = %s\n", p.ConfigOpt.SOP.Format(name))
	f("essential = %v (paper: %s)\n", p.ConfigOpt.EssentialRows, paperdata.EssentialConfig)
	f("optimal configuration set: %v  ⟨ω-det⟩ = %.4g%% (paper: %v, %.4g%%)\n",
		p.ConfigOpt.Best.Labels, p.ConfigOpt.Best.AvgOmegaDet,
		paperdata.OptimalConfigSet, paperdata.OptimizedAvgOmegaDet)
	f("brute force ⟨ω-det⟩ = %.4g%% (paper: %.4g%%)\n", p.Brute.AvgOmegaDet, paperdata.BruteForceAvgOmegaDet)
	f("partial DFT opamps: %v usable %v ⟨ω-det⟩ = %.4g%% (paper: %v, %.4g%%)\n",
		p.OpampOpt.Chosen, p.OpampOpt.UsableLabels, p.OpampOpt.AvgOmegaDet,
		paperdata.OptimalOpampSet, paperdata.PartialDFTAvgOmegaDet)
	return nil
}

// PublishedMatrix returns the Figure 5 / Table 2 matrix from the paper.
func PublishedMatrix() *Matrix { return paperdata.Matrix() }

// PublishedPartialMatrix returns the Table 4 matrix from the paper.
func PublishedPartialMatrix() *Matrix { return paperdata.PartialMatrix() }

// PaperOpampNames is the opamp chain of the paper's biquad.
func PaperOpampNames() []string { return append([]string(nil), paperdata.OpampNames...) }

// Compile-time guards that re-exported helpers keep their signatures.
var (
	_ = detect.Options{}
	_ = analysis.Region{}
)
