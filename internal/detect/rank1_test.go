package detect

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"

	"analogdft/internal/analysis"
	"analogdft/internal/circuit"
	"analogdft/internal/circuits"
	"analogdft/internal/dft"
	"analogdft/internal/fault"
	"analogdft/internal/obs"
)

// requireSameMatrix fails unless got carries want's bits: Det, Omega
// (bitwise), the cell error set with its texts, and Stats but Elapsed.
func requireSameMatrix(t *testing.T, label string, got, want *Matrix) {
	t.Helper()
	for i := range want.Det {
		for j := range want.Det[i] {
			if got.Det[i][j] != want.Det[i][j] || math.Float64bits(got.Omega[i][j]) != math.Float64bits(want.Omega[i][j]) {
				t.Errorf("%s: cell %s/%s = (%t, %v), patch (%t, %v)", label,
					want.Configs[i].Label(), want.Faults[j].ID,
					got.Det[i][j], got.Omega[i][j], want.Det[i][j], want.Omega[i][j])
			}
		}
	}
	if len(got.CellErrors) != len(want.CellErrors) {
		t.Fatalf("%s: %d cell errors, patch %d", label, len(got.CellErrors), len(want.CellErrors))
	}
	for k, ce := range want.CellErrors {
		if g := got.CellErrors[k]; g.Config != ce.Config || g.FaultIndex != ce.FaultIndex || g.Err.Error() != ce.Err.Error() {
			t.Errorf("%s: cell error %d = %v, patch %v", label, k, g, ce)
		}
	}
	gs, ws := got.Stats, want.Stats
	gs.Elapsed, ws.Elapsed = 0, 0
	if gs != ws {
		t.Errorf("%s: stats %+v, patch %+v", label, gs, ws)
	}
}

// raceEnabled is set by race_test.go in -race builds, where the bitwise
// sweeps run a smaller subset.
var raceEnabled bool

// rank1Case is one (bench, fault universe, grid) point of the bitwise
// sweeps.
type rank1Case struct {
	label  string
	ckt    *circuit.Circuit // the bench circuit before DFT
	m      *dft.Modified
	faults fault.List
	opts   Options
}

// rank1Sweep lists the bitwise sweeps' cases: the library benches and a
// six-opamp chain; the deviation universe at fault sizes 0.10–0.30 and the
// bipolar one at 0.10/0.20/0.30 on 61 points; the deviation universe at
// 0.10, where the paper flow's ε ties sit, on 241 points; and the
// catastrophic universe. -short keeps two benches and three sweeps on 61
// points, -race the paper biquad alone.
func rank1Sweep(t *testing.T) []rank1Case {
	t.Helper()
	benches := circuits.Library()
	ms6, err := circuits.MultiStageLowpass(6, 10e3)
	if err != nil {
		t.Fatal(err)
	}
	benches["multistage-lp-6"] = ms6
	names := make([]string, 0, len(benches))
	for name := range benches {
		names = append(names, name)
	}
	sort.Strings(names)
	type sweep struct {
		universe string
		frac     float64
		points   int
	}
	var sweeps []sweep
	for _, frac := range []float64{0.10, 0.15, 0.20, 0.25, 0.30} {
		sweeps = append(sweeps, sweep{"deviation", frac, 61})
		if frac != 0.15 && frac != 0.25 {
			sweeps = append(sweeps, sweep{"bipolar", frac, 61})
		}
	}
	sweeps = append(sweeps, sweep{"deviation", 0.10, 241}, sweep{"catastrophic", 0, 61})
	if testing.Short() || raceEnabled {
		names = []string{"leapfrog-lp5", "paper-biquad"}
		sweeps = []sweep{{"deviation", 0.10, 61}, {"bipolar", 0.20, 61}, {"catastrophic", 0, 61}}
	}
	if raceEnabled {
		// The race detector slows every solve several-fold, and
		// TestRank1RowsRace already runs the rows concurrently.
		names = []string{"paper-biquad"}
	}
	var cases []rank1Case
	for _, name := range names {
		b := benches[name]
		m, err := dft.Apply(b.Circuit, b.Chain)
		if err != nil {
			t.Fatal(err)
		}
		for _, sw := range sweeps {
			var faults fault.List
			switch sw.universe {
			case "deviation":
				faults = fault.DeviationUniverse(b.Circuit, sw.frac)
			case "bipolar":
				faults = fault.BipolarDeviationUniverse(b.Circuit, sw.frac)
			default:
				faults = fault.CatastrophicUniverse(b.Circuit)
			}
			cases = append(cases, rank1Case{
				label:  fmt.Sprintf("%s/%s/%.2f/%d", name, sw.universe, sw.frac, sw.points),
				ckt:    b.Circuit,
				m:      m,
				faults: faults,
				opts:   Options{Points: sw.points},
			})
		}
	}
	return cases
}

// guardResolves reads detect_guard_resolves_total.
func guardResolves() float64 { return obs.Reg().Snapshot()["detect_guard_resolves_total"].Value }

// TestRank1MatchesPatchBitwise is the row walk's contract: rank-1 answers
// against one factorization per (configuration, ω), re-solved under a
// patch wherever they could decide differently, build the matrix the
// patch-first ladder builds, bit for bit, over rank1Sweep.
func TestRank1MatchesPatchBitwise(t *testing.T) {
	before := guardResolves()
	for _, c := range rank1Sweep(t) {
		patch := c.opts
		patch.first = rungPatch
		want, err := BuildMatrix(c.m, c.faults, patch)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		got, err := BuildMatrix(c.m, c.faults, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		requireSameMatrix(t, c.label, got, want)
	}
	if guardResolves() == before {
		t.Error("no point needed the guard: the sweep never exercised it")
	}
}

// TestRank1RowsMatchPatchBitwise is EvaluateCircuit's contract: the
// one-row walk, whose tail also re-solves the points that could hold a
// cell's peak, returns the rows the patch-first ladder returns, MaxDev
// included, bit for bit. Per rank1Sweep case it evaluates the bench
// circuit on the region EvaluateCircuit derives for it (§2's initial
// row), and the configurations with at most one follower as circuits of
// their own on the functional configuration's region. The peak guard must
// re-solve points beyond those the ε/floor guard re-solves on the same
// rows.
func TestRank1RowsMatchPatchBitwise(t *testing.T) {
	var peak, matrix float64
	cells, points := 0, 0
	check := func(label string, ckt *circuit.Circuit, faults fault.List, opts Options) {
		t.Helper()
		patch := opts
		patch.first = rungPatch
		want, err := EvaluateCircuit(ckt, faults, patch)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		before := guardResolves()
		got, err := EvaluateCircuit(ckt, faults, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		peak += guardResolves() - before
		cells += len(got.Evals)
		points += len(got.Evals) * opts.Points
		requireSameRow(t, label, got, want)
		// The same row without the peak guard, as a matrix builds it.
		grid := got.Region.Spec(opts.Points).Grid()
		before = guardResolves()
		rr := newRowRunner(1, faults, opts, func(int) (rowSpec, error) {
			return rowSpec{ckt: ckt, grid: grid, label: label, what: func() string { return label }}, nil
		})
		if _, _, err := rr.run(context.Background()); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		matrix += guardResolves() - before
	}
	for _, c := range rank1Sweep(t) {
		opts := c.opts.Normalize()
		check(c.label, c.ckt, c.faults, opts)
		functional, err := c.m.Configure(dft.Configuration{Index: 0, N: c.m.N()})
		if err != nil {
			t.Fatal(err)
		}
		if opts.Region, err = resolveRegion(functional, opts); err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		opts.MaxFollowers = 1
		for _, cfg := range matrixConfigs(c.m, opts) {
			ckt, err := c.m.Configure(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(c.label+"/"+cfg.Label(), ckt, c.faults, opts)
		}
	}
	t.Logf("%d cells, %d points: %v guard re-solves, %v without the peak guard", cells, points, peak, matrix)
	if peak <= matrix {
		t.Errorf("rows re-solved %v guard points, the same rows without MaxDev %v: the peak guard never fired", peak, matrix)
	}
}

// requireSameRow fails unless got carries want's bits: per cell
// Detectable, OmegaDet and MaxDev (bitwise) and the error text, the
// region, and Stats but Elapsed.
func requireSameRow(t *testing.T, label string, got, want *Row) {
	t.Helper()
	if len(got.Evals) != len(want.Evals) || got.Region != want.Region {
		t.Fatalf("%s: %d cells on %v, patch %d on %v", label, len(got.Evals), got.Region, len(want.Evals), want.Region)
	}
	for j, w := range want.Evals {
		g := got.Evals[j]
		if g.Detectable != w.Detectable || math.Float64bits(g.OmegaDet) != math.Float64bits(w.OmegaDet) ||
			math.Float64bits(g.MaxDev) != math.Float64bits(w.MaxDev) {
			t.Errorf("%s: %s = (%t, %v, %v), patch (%t, %v, %v)", label, w.Fault.ID,
				g.Detectable, g.OmegaDet, g.MaxDev, w.Detectable, w.OmegaDet, w.MaxDev)
		}
		if (g.Err == nil) != (w.Err == nil) || g.Err != nil && g.Err.Error() != w.Err.Error() {
			t.Errorf("%s: %s error %v, patch %v", label, w.Fault.ID, g.Err, w.Err)
		}
	}
	gs, ws := got.Stats, want.Stats
	gs.Elapsed, ws.Elapsed = 0, 0
	if gs != ws {
		t.Errorf("%s: stats %+v, patch %+v", label, gs, ws)
	}
}

// TestRank1GuardSettlesPaperTies: on the paper biquad at 10% faults, R3×1.1
// scales the response of configurations C1 and C3 by exactly 1.1, so
// their fR3 cells sit on ε and rounding decides them (see
// TestEpsBoundaryCellsPaperBiquad). The guard must re-solve those points
// under the patch, so the default engine's verdicts equal the patch
// path's.
func TestRank1GuardSettlesPaperTies(t *testing.T) {
	bench := circuits.PaperBiquad()
	m, err := dft.Apply(bench.Circuit, bench.Chain)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.DeviationUniverse(bench.Circuit, 0.10)
	opts := Options{Eps: 0.10, MeasFloor: 0.01, Region: analysis.Region{LoHz: 100, HiHz: 5600}, Points: 241, Workers: 1}
	j := slices.IndexFunc(faults, func(f fault.Fault) bool { return f.ID == "fR3" })
	before := obs.Reg().Snapshot()["detect_guard_resolves_total"].Value
	if _, err := BuildMatrix(m, fault.List{faults[j]}, opts); err != nil {
		t.Fatal(err)
	}
	if obs.Reg().Snapshot()["detect_guard_resolves_total"].Value == before {
		t.Fatal("fR3 at 10%: no point re-solved by the guard")
	}
	got, err := BuildMatrix(m, faults, opts)
	if err != nil {
		t.Fatal(err)
	}
	patch := opts
	patch.first = rungPatch
	want, err := BuildMatrix(m, faults, patch)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMatrix(t, "paper/0.10", got, want)
	for _, label := range []string{"C1", "C3"} {
		i := got.ConfigByLabel(label)
		if !got.Det[i][j] {
			t.Errorf("%s/fR3 undetected; the patch path detects it", label)
		}
	}
}

// TestRank1SolveAccounting is the factorization gate of the row walk: on
// the paper matrix, mna_solves_total equals the points (one factorization
// of the functional matrix per ω, the basis every row reads) plus the
// row-own factorizations (detect_config_refactor_total) plus the points
// re-solved under a patch — by the guard or because the identity could
// not answer — plus a full sweep per cell that is not rank-1, while
// Stats.Solves still accounts every cell's whole grid. The row-own
// factorizations are pinned: here they are exactly the guard's points,
// the fR3 ties of C1 and C3 (see TestRank1GuardSettlesPaperTies), whose
// corrected nominals the guard needs exact. The rank-1 answers are one
// per rank-1 cell and point, from one z = A⁻¹u solve per incidence and
// point, shared by every row: the eight deviation faults sit on seven
// incidences, because R2 and C1 span the same node pair. Without a basis
// (the patch oracle) every row factors its own matrix at every point.
func TestRank1SolveAccounting(t *testing.T) {
	bench := circuits.PaperBiquad()
	m, err := dft.Apply(bench.Circuit, bench.Chain)
	if err != nil {
		t.Fatal(err)
	}
	const points = 241
	faults := append(fault.DeviationUniverse(bench.Circuit, 0.10),
		fault.Fault{ID: "R1:open", Component: "R1", Kind: fault.Open},
		fault.Fault{ID: "C1:short", Component: "C1", Kind: fault.Short},
	)
	opts := Options{Eps: 0.10, MeasFloor: 0.01, Region: analysis.Region{LoHz: 100, HiHz: 5600}, Points: points, Workers: 2}
	counters := func() map[string]float64 {
		snap := obs.Reg().Snapshot()
		out := map[string]float64{}
		for _, name := range []string{"mna_solves_total", "detect_guard_resolves_total",
			"engine_lowrank_refactor_total", "detect_rank1_cells_total", "engine_lowrank_solve_total",
			"engine_lowrank_incidence_total", "detect_config_refactor_total"} {
			out[name] = snap[name].Value
		}
		return out
	}
	before := counters()
	mx, err := BuildMatrix(m, faults, opts)
	if err != nil {
		t.Fatal(err)
	}
	after := counters()
	d := func(name string) int { return int(after[name] - before[name]) }
	configs, cells := mx.NumConfigs(), mx.NumConfigs()*len(faults)
	rank1 := d("detect_rank1_cells_total")
	if rank1 != configs*(len(faults)-2) {
		t.Fatalf("rank-1 cells = %d, want %d (every deviation fault in every row)", rank1, configs*(len(faults)-2))
	}
	if got := d("engine_lowrank_solve_total"); got != rank1*points {
		t.Errorf("Sherman–Morrison solves = %d, want %d", got, rank1*points)
	}
	if got := d("engine_lowrank_incidence_total"); got != points*7 {
		t.Errorf("incidence solves = %d, want %d = %d points × 7 incidences", got, points*7, points)
	}
	guard, own := d("detect_guard_resolves_total"), d("detect_config_refactor_total")
	if guard != 2*points || own != 2*points {
		t.Errorf("guard re-solves %d and row-own factorizations %d, want %d each (fR3 in C1 and C3)", guard, own, 2*points)
	}
	want := points + own + guard + d("engine_lowrank_refactor_total") + (cells-rank1)*points
	if got := d("mna_solves_total"); got != want {
		t.Errorf("mna_solves_total grew by %d, want %d = %d points + %d row-own + %d guard + %d refactor + %d non-rank-1 cells × %d points",
			got, want, points, own, guard, d("engine_lowrank_refactor_total"), cells-rank1, points)
	}
	if mx.Stats.Solves != (configs+cells)*points {
		t.Errorf("Stats.Solves = %d, want %d (nominal and every cell over the whole grid)", mx.Stats.Solves, (configs+cells)*points)
	}

	patch := opts
	patch.first = rungPatch
	before = counters()
	if _, err := BuildMatrix(m, faults, patch); err != nil {
		t.Fatal(err)
	}
	after = counters()
	if got := d("detect_config_refactor_total"); got != configs*points {
		t.Errorf("patch oracle: row-own factorizations = %d, want %d = %d configs × %d points", got, configs*points, configs, points)
	}
}

// TestMatrixRowsShareOneEngine pins what a matrix build constructs,
// whatever the worker count: the rows run on forks of the basis's
// engine, switched in place to their configurations, so the build clones
// one configuration (the functional one) and builds the stamps of one
// system (the basis's). A fault the rank-1 walk does not answer (an
// open) is patched into the row's engine in place and builds nothing.
// Stamp builds are counted with timing on.
func TestMatrixRowsShareOneEngine(t *testing.T) {
	rt := obs.Default()
	rt.SetTiming(true)
	defer rt.SetTiming(false)
	bench := circuits.PaperBiquad()
	m, err := dft.Apply(bench.Circuit, bench.Chain)
	if err != nil {
		t.Fatal(err)
	}
	dev := fault.DeviationUniverse(bench.Circuit, 0.10)
	open := fault.Fault{ID: "R1:open", Component: "R1", Kind: fault.Open}
	counter := func(name string) float64 { return obs.Reg().Snapshot()[name].Value }
	for _, workers := range []int{1, 3} {
		opts := Options{Eps: 0.10, MeasFloor: 0.01, Region: analysis.Region{LoHz: 100, HiHz: 5600}, Points: 61, Workers: workers}
		for _, c := range []struct {
			name                 string
			faults               fault.List
			configures, rebuilds int
		}{
			{"deviation", dev, 1, 1},
			{"open", append(slices.Clone(dev), open), 1, 1},
		} {
			configures, rebuilds := counter("dft_configure_total"), counter("mna_stamp_rebuild_total")
			if _, err := BuildMatrix(m, c.faults, opts); err != nil {
				t.Fatal(err)
			}
			if got := int(counter("dft_configure_total") - configures); got != c.configures {
				t.Errorf("workers=%d %s: %d configurations cloned, want %d", workers, c.name, got, c.configures)
			}
			if got := int(counter("mna_stamp_rebuild_total") - rebuilds); got != c.rebuilds {
				t.Errorf("workers=%d %s: %d stamp builds, want %d", workers, c.name, got, c.rebuilds)
			}
		}
	}
}

// TestMatrixRowsNameTheirCircuits checks that each matrix row carries the
// name of the circuit Configure would build for it, which its switched
// engine's solve errors report in place of the functional circuit's.
func TestMatrixRowsNameTheirCircuits(t *testing.T) {
	bench := circuits.PaperBiquad()
	m, err := dft.Apply(bench.Circuit, bench.Chain)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Points: 11}.Normalize()
	configs := matrixConfigs(m, opts)
	spec := matrixRows(m, configs, nil, opts)
	for i, cfg := range configs {
		sp, err := spec(i)
		if err != nil {
			t.Fatal(err)
		}
		configured, err := m.Configure(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sp.name != configured.Name {
			t.Errorf("%s: row names %q, want %q", cfg.Label(), sp.name, configured.Name)
		}
	}
}

// TestRank1RowsRace runs the row sweep on four real threads: under -race
// it checks that rows share nothing but the tracker and the counters, and
// that the matrix is the single-worker one.
func TestRank1RowsRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	bench := circuits.PaperBiquad()
	m, err := dft.Apply(bench.Circuit, bench.Chain)
	if err != nil {
		t.Fatal(err)
	}
	faults := append(fault.DeviationUniverse(bench.Circuit, 0.10), fault.Fault{ID: "R1:open", Component: "R1", Kind: fault.Open})
	opts := Options{Eps: 0.10, MeasFloor: 0.01, Region: analysis.Region{LoHz: 100, HiHz: 5600}, Points: 61, Workers: 1}
	want, err := BuildMatrix(m, faults, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	got, err := BuildMatrix(m, faults, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMatrix(t, "workers=4", got, want)
}

// TestRowErrorPrecedence pins the row runner's error order: whatever the
// worker count, the lowest failing row's nominal error is reported, and
// under FailFast it outranks cell errors in rows below it.
func TestRowErrorPrecedence(t *testing.T) {
	ckt := cascade3()
	m, err := dft.ApplyAll(ckt)
	if err != nil {
		t.Fatal(err)
	}
	configs := m.Configurations(false)
	grid := analysis.Region{LoHz: 10, HiHz: 1e5}.Spec(31).Grid()
	spec := func(bad ...int) func(int) (rowSpec, error) {
		return func(i int) (rowSpec, error) {
			if slices.Contains(bad, i) {
				return rowSpec{}, fmt.Errorf("row %d", i)
			}
			c, err := m.Configure(configs[i])
			return rowSpec{ckt: c, grid: grid, label: configs[i].Label(), what: configs[i].String}, err
		}
	}
	good := fault.DeviationUniverse(ckt, 0.2)
	missing := append(fault.List{{ID: "fBAD", Component: "missing", Kind: fault.Deviation, Factor: 1.2}}, good...)
	for _, workers := range []int{1, 4} {
		opts := Options{Points: 31, Workers: workers}.Normalize()
		_, _, err := newRowRunner(len(configs), good, opts, spec(5, 2)).run(context.Background())
		if err == nil || err.Error() != "row 2" {
			t.Errorf("workers=%d: err = %v, want row 2's", workers, err)
		}
		opts.OnError = FailFast
		_, _, err = newRowRunner(len(configs), missing, opts, spec(5)).run(context.Background())
		if err == nil || err.Error() != "row 5" {
			t.Errorf("workers=%d fail-fast: err = %v, want row 5's nominal error over the cell errors", workers, err)
		}
	}
}
