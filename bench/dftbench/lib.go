package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"analogdft"
)

// libInput is one distinct input of a library workload.
type libInput struct {
	name  string // golden key
	bench *analogdft.Bench
	frac  float64
	opts  analogdft.Options
}

// libOutput is what one library op produced: its fingerprint plus the
// pieces the traced run's probes reuse.
type libOutput struct {
	digest digest
	mod    *analogdft.Modified
	mx     *analogdft.Matrix
}

// libSpec describes a library workload: how to build its inputs, how one
// round of ops is drawn from them, and what one op is.
type libSpec struct {
	// inputs builds every distinct input afresh (part of set-up).
	inputs func() ([]*libInput, error)
	// warm lists the inputs warmed up once during set-up.
	warm func(all []*libInput) []*libInput
	// round draws the next round of ops. Every round has the same
	// composition and the window ends on a round boundary, so every run
	// measures the same mix.
	round func(rng *rand.Rand, all []*libInput) []*libInput
	// op runs one op. ctx carries the op's span when tracing.
	op func(ctx context.Context, in *libInput) (*libOutput, error)
	// probe times single layers outside the op (traced runs only).
	probe func(ctx context.Context, in *libInput, out *libOutput) int
	// claims checks the paper's own results on an op's output.
	claims func(in *libInput, d digest) []string
}

// paperFracs are the fault sizes paper-flow draws from.
var paperFracs = []float64{0.10, 0.15, 0.20, 0.25, 0.30}

var paperFlow = &libSpec{
	inputs: func() ([]*libInput, error) {
		bench := analogdft.PaperBiquad()
		var out []*libInput
		for _, f := range paperFracs {
			out = append(out, &libInput{name: fmt.Sprintf("frac=%.2f", f), bench: bench, frac: f, opts: analogdft.PaperOptions()})
		}
		return out, nil
	},
	warm:  func(all []*libInput) []*libInput { return all },
	round: shuffled,
	op: func(_ context.Context, in *libInput) (*libOutput, error) {
		e, err := analogdft.Run(in.bench, in.frac, in.opts)
		if err != nil {
			return nil, err
		}
		return &libOutput{
			digest: newDigest(e.Matrix, e.PartialMatrix, e.ConfigOpt, e.OpampOpt, e.Initial),
			mod:    e.Modified,
			mx:     e.Matrix,
		}, nil
	},
	probe: func(ctx context.Context, in *libInput, out *libOutput) int {
		probeRegion(ctx, in)
		_, sp := analogdft.StartSpan(ctx, "dft.apply")
		_, _ = analogdft.ApplyDFT(in.bench.Circuit, in.bench.Chain) // timing only; the op already applied it
		sp.End()
		points := probeSweep(ctx, out, in.opts.Region, in.opts.Points)
		_, sp = analogdft.StartSpan(ctx, "core.optimize")
		_, _ = analogdft.Optimize(out.mx, in.bench.Chain, analogdft.ConfigCountCost) // timing only
		sp.End()
		_, sp = analogdft.StartSpan(ctx, "core.opamps")
		_, _ = analogdft.OptimizeOpamps(out.mx, in.bench.Chain) // timing only
		sp.End()
		return points
	},
	claims: func(in *libInput, d digest) []string {
		if in.frac != analogdft.PaperFaultFraction {
			return nil
		}
		var out []string
		if d.InitialCoverage != 0.25 || fmt.Sprint(d.InitialDetected) != "[fR1 fR4]" {
			out = append(out, fmt.Sprintf("paper §2: initial coverage %g detecting %v, want 0.25 detecting [fR1 fR4]", d.InitialCoverage, d.InitialDetected))
		}
		if d.Coverage != 1 {
			out = append(out, fmt.Sprintf("paper §3: DFT coverage %g, want 1", d.Coverage))
		}
		return out
	},
}

// wideFracs are the fault sizes wide-chain draws from; wideWarmFrac is
// the one each circuit is warmed up with.
var (
	wideFracs    = []float64{0.15, 0.20, 0.25}
	wideWarmFrac = 0.20
)

// wideCircuit is one wide-chain circuit with the row limit it runs under.
type wideCircuit struct {
	bench        func() (*analogdft.Bench, error)
	maxFollowers int
}

var wideCircuits = []wideCircuit{
	{bench: func() (*analogdft.Bench, error) { return analogdft.MultiStageLowpass(6, 10e3) }},
	{bench: func() (*analogdft.Bench, error) { return analogdft.BiquadCascade(2) }},
	{bench: func() (*analogdft.Bench, error) { return analogdft.CircuitLibrary()["leapfrog-lp5"], nil }, maxFollowers: 2},
	{bench: func() (*analogdft.Bench, error) { return analogdft.MultiStageLowpass(5, 10e3) }},
}

var wideChain = &libSpec{
	inputs: func() ([]*libInput, error) {
		var out []*libInput
		for _, c := range wideCircuits {
			b, err := c.bench()
			if err != nil {
				return nil, err
			}
			for _, f := range wideFracs {
				out = append(out, &libInput{
					name:  fmt.Sprintf("%s/frac=%.2f", b.Circuit.Name, f),
					bench: b,
					frac:  f,
					opts:  analogdft.Options{Points: 61, MaxFollowers: c.maxFollowers},
				})
			}
		}
		return out, nil
	},
	warm: func(all []*libInput) []*libInput {
		var out []*libInput
		for _, in := range all {
			if in.frac == wideWarmFrac {
				out = append(out, in)
			}
		}
		return out
	},
	round: shuffled,
	op: func(ctx context.Context, in *libInput) (*libOutput, error) {
		ctx, span := analogdft.StartSpan(ctx, "bench.op")
		defer span.End()
		s := analogdft.NewSession(in.bench, analogdft.DeviationFaults(in.bench.Circuit, in.frac), in.opts)
		_, sp := analogdft.StartSpan(ctx, "dft.apply")
		mod, err := s.Modified()
		sp.End()
		if err != nil {
			return nil, err
		}
		mx, err := s.Matrix(ctx)
		if err != nil {
			return nil, err
		}
		_, sp = analogdft.StartSpan(ctx, "core.optimize")
		opt, err := analogdft.OptimizeContext(ctx, mx, in.bench.Chain, analogdft.ConfigCountCost)
		sp.End()
		if err != nil {
			return nil, err
		}
		_, sp = analogdft.StartSpan(ctx, "core.opamps")
		ops, err := analogdft.OptimizeOpamps(mx, in.bench.Chain)
		sp.End()
		if err != nil {
			return nil, err
		}
		return &libOutput{digest: newDigest(mx, nil, opt, ops, nil), mod: mod, mx: mx}, nil
	},
	probe: func(ctx context.Context, in *libInput, out *libOutput) int {
		probeRegion(ctx, in)
		return probeSweep(ctx, out, out.mx.Region, in.opts.Points)
	},
}

// shuffled is a round of every input once, in seeded order. A fault
// size changes an op's cost by up to 2× (a larger deviation can grow the
// Petrick cover), so drawing sizes at random would change the work mix
// from seed to seed; cycling through all of them keeps it fixed.
func shuffled(rng *rand.Rand, all []*libInput) []*libInput {
	out := make([]*libInput, len(all))
	for i, p := range rng.Perm(len(all)) {
		out[i] = all[p]
	}
	return out
}

// probeRegion times the Ω_reference derivation of the input circuit.
func probeRegion(ctx context.Context, in *libInput) {
	_, sp := analogdft.StartSpan(ctx, "analysis.region")
	_, _ = analogdft.ReferenceRegion(in.bench.Circuit) // timing only
	sp.End()
}

// probeSweep times a nominal AC sweep of every configuration of the op's
// matrix — MNA assembly, factorization and solve at each grid point — and
// returns the number of points solved.
func probeSweep(ctx context.Context, out *libOutput, region analogdft.Region, points int) int {
	var ckts []*analogdft.Circuit
	for _, cfg := range out.mx.Configs {
		ckt, err := out.mod.Configure(cfg)
		if err != nil {
			continue
		}
		ckts = append(ckts, ckt)
	}
	spec := region.Spec(points)
	_, sp := analogdft.StartSpan(ctx, "mna.sweep")
	for _, ckt := range ckts {
		_, _ = analogdft.Sweep(ckt, spec) // timing only
	}
	sp.End()
	return len(ckts) * points
}

// libCounters maps per-layer metrics onto the library counters whose
// per-op delta they report.
var libCounters = map[string]string{
	"analysis.patches_per_op":         "engine_patch_total",
	"analysis.lowrank_factors_per_op": "engine_lowrank_factor_total",
	"mna.solves_per_op":               "mna_solves_total",
	"detect.cells_per_op":             "detect_cells_total",
	"detect.solves_per_op":            "detect_solves_total",
	"detect.fallbacks_per_op":         "engine_fallback_total",
	"dft.configures_per_op":           "dft_configure_total",
	"boolexpr.clauses_per_op":         "boolexpr_petrick_clauses_total",
	"boolexpr.cover_nodes_per_op":     "boolexpr_cover_nodes_total",
}

// counterSnapshot reads the library's metric registry as name → value.
func counterSnapshot() map[string]float64 {
	out := make(map[string]float64)
	for name, m := range analogdft.Observability().Metrics.Snapshot() {
		out[name] = m.Value
	}
	return out
}

// runLibrary runs a library workload: set-up (input construction and one
// untimed warm-up op per warm input) repeated setupReps times, then a
// closed loop of whole rounds until the window has lasted cfg.seconds.
func runLibrary(cfg config, spec *libSpec) (*window, error) {
	g, err := readGolden(cfg.benchDir, cfg.workload)
	if err != nil && !cfg.updateGolden {
		return nil, err
	}
	w := newWindow()
	check := func(in *libInput, out *libOutput) bool {
		if cfg.updateGolden {
			return true
		}
		bad := g.check(in.name, out.digest)
		if spec.claims != nil {
			bad = append(bad, spec.claims(in, out.digest)...)
		}
		for _, b := range bad {
			w.note("wrong output on %s: %s", in.name, b)
		}
		return len(bad) == 0
	}

	var inputs []*libInput
	for rep := 0; rep < cfg.setupReps(); rep++ {
		t0 := time.Now()
		if inputs, err = spec.inputs(); err != nil {
			return nil, fmt.Errorf("build inputs: %w", err)
		}
		for _, in := range spec.warm(inputs) {
			out, err := spec.op(context.Background(), in)
			if err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", in.name, err)
			}
			if !check(in, out) {
				w.failed++
			}
		}
		w.setupDone(t0)
	}
	if cfg.updateGolden {
		return nil, updateLibraryGolden(cfg, spec, inputs)
	}

	tracer := analogdft.Observability()
	lt := newLibTrace(cfg)
	rng := rand.New(rand.NewSource(cfg.seed))
	var ms0, ms1 runtime.MemStats
	deadline := w.windowStart().Add(cfg.duration())
	for done := false; !done; {
		for _, in := range spec.round(rng, inputs) {
			traced := cfg.trace && w.attempted%2 == 0
			var before map[string]float64
			if cfg.trace {
				before = counterSnapshot()
				if traced {
					tracer.Tracer.Reset()
					tracer.EnableTracing(true)
				} else {
					runtime.ReadMemStats(&ms0)
				}
			}
			t0 := time.Now()
			out, err := spec.op(context.Background(), in)
			lat := time.Since(t0)
			w.attempted++
			if cfg.trace {
				if !traced {
					runtime.ReadMemStats(&ms1)
					lt.allocs += float64(ms1.Mallocs - ms0.Mallocs)
					lt.allocBytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
					lt.untracedOps++
				}
				lt.addCounters(before, counterSnapshot())
			}
			switch {
			case err != nil:
				w.failed++
				w.note("op %s: %v", in.name, err)
			case !check(in, out):
				w.failed++
			}
			if traced {
				points := 0
				if err == nil {
					points = spec.probe(context.Background(), in, out)
				}
				tracer.EnableTracing(false)
				if err := lt.addOp(w.attempted, lat, points); err != nil {
					return nil, err
				}
			}
			w.record(in.name, lat, traced)
			if cfg.smoke && w.attempted >= smokeOps {
				done = true
				break
			}
			if w.meter.due(libCadence.every) { // between ops nothing of the workload runs
				w.meter.sample(libCadence.runs)
			}
		}
		if time.Now().After(deadline) {
			done = true
		}
	}
	w.windowDone()
	self, err := readProc("self")
	if err != nil {
		return nil, err
	}
	w.peakRSSMB = self.hwmKB / 1024
	if cfg.trace {
		w.layers = lt.layers(cfg, w, self)
	}
	return w, nil
}

// updateLibraryGolden runs every distinct input once and writes the
// workload's golden file from the outputs.
func updateLibraryGolden(cfg config, spec *libSpec, inputs []*libInput) error {
	g := &golden{Workload: cfg.workload, Inputs: make(map[string]digest)}
	for _, in := range inputs {
		out, err := spec.op(context.Background(), in)
		if err != nil {
			return fmt.Errorf("golden %s: %w", in.name, err)
		}
		if spec.claims != nil {
			if bad := spec.claims(in, out.digest); len(bad) > 0 {
				return fmt.Errorf("golden %s: %v", in.name, bad)
			}
		}
		g.Inputs[in.name] = out.digest
	}
	return writeGolden(cfg.benchDir, g)
}
