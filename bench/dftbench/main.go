// Command dftbench is the end-to-end benchmark of the multi-configuration
// DFT flow: the paper's own experiment, wide opamp chains, and the
// dftserved job service with and without its result cache. It drives only
// the public analogdft API and the dftserved HTTP API, checks every
// output against committed goldens or an in-process recomputation, and
// prints each metric as "workload metric value unit" followed by one JSON
// result line.
//
//	dftbench -workload paper-flow|wide-chain|serve-cold|serve-hot|all
//	         [-seed N] [-seconds S] [-trace 0|1] [-out FILE] [-runs N]
//	         [-smoke] [-update-golden]
//	dftbench compare [-bounds BENCHMARK.json] A.json B.json
//
// bench/run.sh builds this command and dftserved from the checkout and
// runs it; see bench/README.md for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one run's settings.
type config struct {
	workload     string
	seed         int64
	seconds      float64
	trace        bool
	smoke        bool
	updateGolden bool
	benchDir     string // holds golden/ and decks/
	workDir      string // holds result stores, server logs and traces
	serverBin    string // dftserved binary for the serve workloads
}

// smokeOps is the op count of a -smoke run.
const smokeOps = 2

// setupReps is how often a run sets up; setup_s is the median.
func (c config) setupReps() int {
	if c.smoke || c.updateGolden {
		return 1
	}
	return 5
}

// duration is the measuring window; a smoke run stops on op count.
func (c config) duration() time.Duration {
	if c.smoke {
		return time.Hour
	}
	return time.Duration(c.seconds * float64(time.Second))
}

// window is what one workload run measured.
type window struct {
	latMs  []float64 // per-op latency, in op order
	kinds  []string  // input of op i (library workloads)
	traced []bool    // whether op i ran traced
	wallS  float64   // wall time of the measuring window, pauses left out
	setupS []float64 // wall time of each set-up
	// meter times the reference kernel whenever the workload pauses;
	// windowAt bounds the measuring window in time and pausedAt is the
	// meter's paused total when it began.
	meter     *speedMeter
	windowAt  [2]time.Time
	pausedAt  time.Duration
	attempted int
	failed    int
	peakRSSMB float64
	layers    map[string]float64 // per-layer metrics (traced runs)
	table     string             // self time table (traced runs)
	notes     []string
}

func (w *window) record(kind string, lat time.Duration, traced bool) {
	w.latMs = append(w.latMs, ms(lat))
	w.kinds = append(w.kinds, kind)
	w.traced = append(w.traced, traced)
}

// byKind splits latencies by op input, keeping op order within each.
func (w *window) byKind(keep func(i int) bool) map[string][]float64 {
	out := make(map[string][]float64)
	for i, l := range w.latMs {
		if keep(i) {
			out[w.kinds[i]] = append(out[w.kinds[i]], l)
		}
	}
	return out
}

// newWindow starts a run's record, timing the reference kernel once
// before the first set-up.
func newWindow() *window {
	w := &window{meter: &speedMeter{}}
	w.meter.sample(libCadence.runs)
	return w
}

// setupDone records a set-up that began at t0 and times the reference
// kernel right after it.
func (w *window) setupDone(t0 time.Time) {
	w.setupS = append(w.setupS, time.Since(t0).Seconds())
	w.meter.sample(libCadence.runs)
}

// windowStart begins the measuring window and returns its start.
func (w *window) windowStart() time.Time {
	w.windowAt[0] = time.Now()
	w.pausedAt = w.meter.pausedTotal()
	return w.windowAt[0]
}

// windowDone ends the measuring window, timing the reference kernel once
// more. The window's wall time leaves out the time the meter paused the
// workload.
func (w *window) windowDone() {
	w.meter.sample(libCadence.runs)
	w.windowAt[1] = time.Now()
	paused := w.meter.pausedTotal() - w.pausedAt
	w.wallS = (w.windowAt[1].Sub(w.windowAt[0]) - paused).Seconds()
}

// speed is how slowly the machine ran during the run's set-ups and during
// its window, from the samples the meter took in each.
func (w *window) speed() speed {
	return speed{
		Setup:  w.meter.slowdown(time.Time{}, w.windowAt[0]),
		Window: w.meter.slowdown(w.windowAt[0], w.windowAt[1]),
	}
}

func (w *window) note(format string, args ...any) {
	w.notes = append(w.notes, fmt.Sprintf(format, args...))
}

// workload is one benchmark workload.
type workload struct {
	name string
	// tail is the quantile latency_tail_ms is reported at, unless too few
	// samples lie beyond it (see tailQuantile). Each is the highest
	// quantile that a 20 s window on a two-core machine leaves ten
	// samples beyond even on a slow run, so the quantile does not change
	// between runs.
	tail float64
	run  func(config) (*window, error)
}

var workloads = []workload{
	{"paper-flow", 0.95, func(c config) (*window, error) { return runLibrary(c, paperFlow) }},
	{"wide-chain", 0.75, func(c config) (*window, error) { return runLibrary(c, wideChain) }},
	{"serve-cold", 0.95, func(c config) (*window, error) { return runServe(c, false) }},
	{"serve-hot", 0.99, func(c config) (*window, error) { return runServe(c, true) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as kept in a results file: the result line, plus the
// metrics as measured before scaling to reference speed and the
// slowdowns they were scaled by.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
	Raw      map[string]metricValue `json:"raw,omitempty"`
	Slowdown *speed                 `json:"slowdown,omitempty"`
}

// speed is how slowly the machine ran during a run's set-ups and its
// window: the meter's kernel time over its uncontended time.
type speed struct {
	Setup  float64 `json:"setup"`
	Window float64 `json:"window"`
}

// scaled converts a raw measurement to reference speed: times are divided
// by the slowdown the machine ran at, rates multiplied by it; other units
// are not speeds and stay as measured.
func (sp speed) scaled(name, unit string, v float64) float64 {
	f := sp.Window
	if name == "setup_s" {
		f = sp.Setup
	}
	switch unit {
	case "ms", "us", "s":
		return v / f
	case "1/s":
		return v * f
	}
	return v
}

// summarize turns a window into the run's metrics, at reference speed,
// and prints them. It also returns the metrics as measured.
func summarize(out io.Writer, wl workload, cfg config, w *window, sp speed) (result, map[string]metricValue) {
	res := result{
		Correct:   w.failed == 0 && w.attempted > 0,
		Attempted: w.attempted,
		Failed:    w.failed,
		Metrics:   make(map[string]metricValue),
	}
	asMeasured := make(map[string]metricValue)
	sorted := sortedCopy(w.latMs)
	q := tailQuantile(len(sorted), wl.tail)
	values := map[string]float64{
		"setup_s":         median(w.setupS),
		"ops_per_s":       float64(w.attempted) / w.wallS,
		"latency_p50_ms":  medianOfInputs(out, wl.name, w),
		"latency_tail_ms": quantile(sorted, q),
		"peak_rss_mb":     w.peakRSSMB,
	}
	fmt.Fprintf(out, "# %s as measured: latency_p50_ms %.4g; latency_tail_ms is p%s of %d samples, %d beyond it; p90 %.4g p95 %.4g p99 %.4g ms\n",
		wl.name, values["latency_p50_ms"], strconv.FormatFloat(100*q, 'f', -1, 64), len(sorted), beyond(len(sorted), q),
		quantile(sorted, 0.9), quantile(sorted, 0.95), quantile(sorted, 0.99))
	fmt.Fprint(out, w.table)
	fmt.Fprintf(out, "# %s machine slowdown %.4f in set-up, %.4f in the window (%d samples, all taken while the workload paused); times below are divided by it, rates multiplied\n",
		wl.name, sp.Setup, sp.Window, len(w.meter.samples))
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
		for name, v := range w.layers {
			values[name] = v
		}
		values["machine_slowdown"] = sp.Window
	}
	for _, m := range specs {
		raw := values[m.name]
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			raw = 0
		}
		v := sp.scaled(m.name, m.unit, raw)
		if !cfg.trace && v != raw {
			fmt.Fprintf(out, "# %s %s as measured %s %s\n", wl.name, m.name, strconv.FormatFloat(raw, 'g', -1, 64), m.unit)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		asMeasured[m.name] = metricValue{Value: raw, Unit: m.unit}
		fmt.Fprintf(out, "%s %s %s %s\n", wl.name, m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit)
	}
	return res, asMeasured
}

// medianOfInputs is latency_p50_ms: the median op latency of each input,
// averaged over the inputs. The library workloads mix inputs whose costs
// differ up to tenfold, so the median of the pooled ops would sit on the
// gap between two inputs and jump from run to run; the serve workloads
// have one input, the request stream, and so report its plain median.
// With several inputs it prints each one's median.
func medianOfInputs(out io.Writer, workload string, w *window) float64 {
	byKind := w.byKind(func(int) bool { return true })
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	sum := 0.0
	for _, k := range kinds {
		m := median(byKind[k])
		sum += m
		if len(kinds) > 1 {
			fmt.Fprintf(out, "# %s %-28s p50 %9.3f ms over %d ops\n", workload, k, m, len(byKind[k]))
		}
	}
	return sum / float64(len(kinds))
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		var exit exitError
		if errors.As(err, &exit) {
			os.Exit(int(exit))
		}
		fmt.Fprintln(os.Stderr, "dftbench:", err)
		os.Exit(1)
	}
}

// exitError ends the program with a status but no message (the result
// line already said why).
type exitError int

func (e exitError) Error() string { return fmt.Sprintf("exit status %d", int(e)) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dftbench", flag.ContinueOnError)
	var (
		cfg   config
		trace int
		runs  int
		out   string
	)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: paper-flow, wide-chain, serve-cold, serve-hot or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed (all: first seed, one more per run)")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the measuring window")
	fs.IntVar(&trace, "trace", 0, "1 runs traced and reports per-layer metrics")
	fs.IntVar(&runs, "runs", 1, "with -workload all: runs of each workload, interleaved")
	fs.StringVar(&out, "out", "", "append each run's record to this JSON results file")
	fs.BoolVar(&cfg.smoke, "smoke", false, fmt.Sprintf("run %d ops after one set-up", smokeOps))
	fs.BoolVar(&cfg.updateGolden, "update-golden", false, "rewrite the workload's golden file from this build (library workloads)")
	fs.StringVar(&cfg.benchDir, "benchdir", "bench", "directory holding golden/ and decks/")
	fs.StringVar(&cfg.workDir, "workdir", ".bench_build", "directory for result stores, server logs and traces")
	fs.StringVar(&cfg.serverBin, "dftserved", "", "dftserved binary (serve workloads)")
	if err := fs.Parse(args); err != nil {
		return exitError(2)
	}
	if fs.Arg(0) == "compare" {
		return runCompare(fs.Args()[1:], stdout)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds %g: want > 0", cfg.seconds)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return err
	}
	if cfg.workload == "all" {
		if cfg.updateGolden {
			return errors.New("-update-golden takes one library workload")
		}
		return runAll(cfg, runs, out, stdout)
	}
	wl, ok := findWorkload(cfg.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (want paper-flow, wide-chain, serve-cold, serve-hot or all)", cfg.workload)
	}
	w, err := wl.run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}
	if cfg.updateGolden {
		fmt.Fprintf(stdout, "wrote %s\n", goldenPath(cfg.benchDir, wl.name))
		return nil
	}
	printNotes(w.notes)
	sp := w.speed()
	res, raw := summarize(stdout, wl, cfg, w, sp)
	if out != "" {
		rec := record{Workload: wl.name, Seed: cfg.seed, Trace: cfg.trace, result: res, Raw: raw, Slowdown: &sp}
		if err := appendRecord(out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return exitError(1)
	}
	return nil
}

// printNotes reports a run's diagnostics on stderr, keeping stdout for
// metrics.
func printNotes(notes []string) {
	const maxNotes = 20
	for i, n := range notes {
		if i == maxNotes {
			fmt.Fprintf(os.Stderr, "dftbench: … and %d more\n", len(notes)-maxNotes)
			break
		}
		fmt.Fprintln(os.Stderr, "dftbench:", n)
	}
}

// runAll runs every workload runs times, each in its own child process so
// memory high-water marks and GC state start clean, interleaving the
// workloads and giving run r the seed cfg.seed+r. It prints the children's
// metric lines, then one JSON line with the median of each metric keyed
// workload.metric.
func runAll(cfg config, runs int, out string, stdout io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	base := []string{
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-benchdir", cfg.benchDir, "-workdir", cfg.workDir, "-dftserved", cfg.serverBin,
	}
	if cfg.trace {
		base = append(base, "-trace", "1")
	}
	if cfg.smoke {
		base = append(base, "-smoke")
	}
	if out != "" {
		base = append(base, "-out", out)
	}

	total := result{Correct: true, Metrics: make(map[string]metricValue)}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for r := 0; r < runs; r++ {
		for _, wl := range workloads {
			child := append(append([]string(nil), base...), "-workload", wl.name, "-seed", strconv.FormatInt(cfg.seed+int64(r), 10))
			cmd := exec.Command(exe, child...)
			var buf bytes.Buffer
			cmd.Stdout, cmd.Stderr = &buf, os.Stderr
			runErr := cmd.Run()
			lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
			last := lines[len(lines)-1]
			var res result
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				fmt.Fprintln(stdout, strings.Join(lines, "\n"))
				return fmt.Errorf("%s seed %d: no result (%v)", wl.name, cfg.seed+int64(r), runErr)
			}
			fmt.Fprintln(stdout, strings.Join(lines[:len(lines)-1], "\n"))
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			for name, m := range res.Metrics {
				key := wl.name + "." + name
				values[key] = append(values[key], m.Value)
				units[key] = m.Unit
			}
		}
	}
	for key, vs := range values {
		total.Metrics[key] = metricValue{Value: median(vs), Unit: units[key]}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !total.Correct {
		return exitError(1)
	}
	return nil
}

// appendRecord adds rec to the results file at path, creating it.
func appendRecord(path string, rec record) error {
	all, err := readRecords(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	raw, err := json.MarshalIndent(append(all, rec), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// readRecords loads a results file: a JSON array of records.
func readRecords(path string) ([]record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(raw, &recs); err != nil {
		return nil, fmt.Errorf("results %s: %w", path, err)
	}
	return recs, nil
}
