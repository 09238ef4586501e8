// Command dftopt runs the full multi-configuration DFT optimization on a
// netlist deck:
//
//	dftopt [flags] circuit.cir
//
// The deck must declare .input and .output; .chain selects the
// configurable opamps (default: every opamp in netlist order). Flags
// select the fault size, tolerance, reference region and the 2nd-order
// cost function. With no deck argument the built-in paper biquad is used.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"analogdft"
	"analogdft/internal/obs/cliobs"
)

// config carries the parsed command line.
type config struct {
	path       string
	frac       float64
	eps        float64
	floor      float64
	points     int
	loHz, hiHz float64
	cost       string
	wCfg, wOp  float64
	bipolar    bool
	sim        cliobs.SimFlags
	lint       cliobs.LintFlags
}

func main() {
	var cfg config
	flag.Float64Var(&cfg.frac, "frac", 0.20, "deviation fault size (fraction)")
	flag.Float64Var(&cfg.eps, "eps", 0.10, "detection tolerance ε (fraction)")
	flag.Float64Var(&cfg.floor, "floor", 1e-4, "measurement floor relative to the response peak")
	flag.IntVar(&cfg.points, "points", 241, "frequency grid points over Ω_reference")
	flag.Float64Var(&cfg.loHz, "lo", 0, "pin Ω_reference low edge (Hz); 0 = automatic")
	flag.Float64Var(&cfg.hiHz, "hi", 0, "pin Ω_reference high edge (Hz); 0 = automatic")
	flag.StringVar(&cfg.cost, "cost", "configs", `2nd-order cost: "configs", "opamps" or "weighted"`)
	flag.Float64Var(&cfg.wCfg, "wconfigs", 1, "configuration weight for -cost=weighted")
	flag.Float64Var(&cfg.wOp, "wopamps", 1, "opamp weight for -cost=weighted")
	flag.BoolVar(&cfg.bipolar, "bipolar", false, "use ± deviation faults instead of + only")
	cfg.sim.Register(flag.CommandLine)
	cfg.lint.Register(flag.CommandLine)
	obsf := cliobs.RegisterObs(flag.CommandLine)
	flag.Parse()
	cfg.path = flag.Arg(0)

	sess, err := obsf.Start("dftopt", nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dftopt:", err)
		os.Exit(1)
	}
	sess.Report.SetInput("deck", cfg.path)
	runErr := run(cfg, os.Stdout)
	if err := sess.Finish(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "dftopt:", runErr)
		os.Exit(1)
	}
}

func run(cfg config, stdout io.Writer) error {
	bench, err := analogdft.LoadBench(cfg.path)
	if err != nil {
		return err
	}
	if len(bench.Chain) == 0 {
		return fmt.Errorf("deck %s has no opamps to configure", cfg.path)
	}
	if err := cfg.lint.Preflight("dftopt", bench, os.Stderr); err != nil {
		return err
	}
	opts := analogdft.Options{Eps: cfg.eps, MeasFloor: cfg.floor, Points: cfg.points}
	if err := cfg.sim.Apply(&opts, os.Stderr); err != nil {
		return err
	}
	if cfg.loHz > 0 && cfg.hiHz > cfg.loHz {
		opts.Region = analogdft.Region{LoHz: cfg.loHz, HiHz: cfg.hiHz}
	}
	faults := analogdft.DeviationFaults(bench.Circuit, cfg.frac)
	if cfg.bipolar {
		faults = analogdft.BipolarDeviationFaults(bench.Circuit, cfg.frac)
	}
	exp, err := analogdft.RunFaults(bench, faults, opts)
	if err != nil {
		return err
	}
	// The optimizer consumes d[i][j] as ground truth; a matrix with error
	// placeholders can understate coverage and mislead Petrick's method,
	// so failed cells are never silent.
	warnCellErrors(os.Stderr, "full matrix", exp.Matrix)
	if exp.PartialMatrix != nil {
		warnCellErrors(os.Stderr, "partial matrix", exp.PartialMatrix)
	}

	var costFn analogdft.CostFunction
	switch cfg.cost {
	case "configs":
		costFn = analogdft.ConfigCountCost
	case "opamps":
		costFn = analogdft.OpampCountCost
	case "weighted":
		costFn = analogdft.WeightedCost(cfg.wCfg, cfg.wOp)
	default:
		return fmt.Errorf("unknown cost %q", cfg.cost)
	}
	if exp.ConfigOpt, err = analogdft.Optimize(exp.Matrix, bench.Chain, costFn); err != nil {
		return err
	}
	if err := exp.Report(stdout); err != nil {
		return err
	}
	if cfg.sim.Stats {
		writeStats(stdout, exp)
	}
	return reportProgram(stdout, exp, bench)
}

// writeStats prints the simulation effort behind the full and partial
// matrices.
func writeStats(w io.Writer, exp *analogdft.Experiment) {
	fmt.Fprintf(w, "\nfault simulation: %s\n", exp.Matrix.Stats)
	switch {
	case exp.PartialReused:
		fmt.Fprintf(w, "partial matrix:   %d rows reused from the full matrix, 0 solves\n", exp.PartialMatrix.NumConfigs())
	case exp.PartialMatrix != nil:
		fmt.Fprintf(w, "partial matrix:   %s\n", exp.PartialMatrix.Stats)
	}
}

// warnCellErrors lists a matrix's failed cells on w; the optimization
// results downstream of such a matrix must not be trusted blindly.
func warnCellErrors(w io.Writer, label string, mx *analogdft.Matrix) {
	if len(mx.CellErrors) == 0 {
		return
	}
	fmt.Fprintf(w, "dftopt: warning: %s has %d failed cells (recorded undetectable); coverage may be understated:\n",
		label, len(mx.CellErrors))
	for _, ce := range mx.CellErrors {
		fmt.Fprintf(w, "  %-5s %-8s %v\n", ce.Config.Label(), ce.Fault.ID, ce.Err)
	}
}

// reportProgram appends the concrete test program for the optimized set:
// per-configuration test frequencies, the minimum-toggle application
// order and the BIST hardware budget.
func reportProgram(w io.Writer, exp *analogdft.Experiment, bench *analogdft.Bench) error {
	var cfgIdxs []int
	for _, r := range exp.ConfigOpt.Best.Rows {
		cfgIdxs = append(cfgIdxs, exp.Matrix.Configs[r].Index)
	}
	plans, err := analogdft.PlanConfigurationTests(exp.Modified, cfgIdxs, exp.Faults, exp.Matrix.Region,
		analogdft.TestGenOptions{Eps: exp.Opts.Eps, MeasFloor: exp.Opts.MeasFloor, Points: exp.Opts.Points})
	if err != nil {
		return err
	}
	var items []analogdft.TestItem
	totalFreqs := 0
	for i, r := range exp.ConfigOpt.Best.Rows {
		items = append(items, analogdft.TestItem{Config: exp.Matrix.Configs[r], Freqs: plans[i].Freqs})
		totalFreqs += len(plans[i].Freqs)
	}
	start := analogdft.Configuration{Index: 0, N: exp.Modified.N()}
	prog, err := analogdft.ScheduleTests(items, start)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\ntest program for the optimal set:")
	for _, step := range prog.Steps {
		fmt.Fprintf(w, "  %s (%s): %d toggles in, frequencies %v\n",
			step.Config.Label(), step.Config.Vector(), step.TogglesIn, step.Freqs)
	}
	fmt.Fprintf(w, "selection-line toggles: %d (naive order: %d)\n",
		prog.TotalToggles(), analogdft.NaiveToggleCount(items, start))
	est, err := analogdft.EstimateBIST(analogdft.DefaultBISTModel, exp.Modified.N(),
		len(items), prog.TotalMeasurements())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "BIST budget: %.0f gate equivalents (%d config ROM bits, %d freq words, %d windows)\n",
		est.GateEquivalents, est.ConfigROMBits, est.FreqROMBits, est.Windows)
	return nil
}
