package main

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"time"
)

// metricSpec names one reported metric. The lists below are the ones
// BENCHMARK.json declares; a test keeps the two in step.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports. Every run reports every
// one; a layer a workload does not reach reads 0. The two latencies are
// here rather than end to end because on some workload their run-to-run
// spread is wider than the 10% the end-to-end metrics are bounded by.
var perLayer = []metricSpec{
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"analysis.region_ms", "ms"},
	{"analysis.patches_per_op", "count"},
	{"analysis.lowrank_factors_per_op", "count"},
	{"mna.point_us", "us"},
	{"mna.solves_per_op", "count"},
	{"detect.evaluate_ms", "ms"},
	{"detect.matrix_ms", "ms"},
	{"detect.nominals_ms", "ms"},
	{"detect.cells_ms", "ms"},
	{"detect.cells_per_op", "count"},
	{"detect.solves_per_op", "count"},
	{"detect.fallbacks_per_op", "count"},
	{"dft.apply_ms", "ms"},
	{"dft.configures_per_op", "count"},
	{"core.optimize_ms", "ms"},
	{"core.opamps_ms", "ms"},
	{"boolexpr.clauses_per_op", "count"},
	{"boolexpr.peak_terms", "count"},
	{"boolexpr.cover_nodes_per_op", "count"},
	{"boolexpr.absorb_keep_ratio", "ratio"},
	{"jobs.enqueue_wait_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"jobs.hit_ratio", "ratio"},
	{"jobs.rejected_ratio", "ratio"},
	{"jobs.store_bytes_per_put", "bytes"},
	{"dftserved.submit_ms", "ms"},
	{"dftserved.result_ms", "ms"},
	{"dftserved.cpu_ms_per_op", "ms"},
	{"dftserved.rss_kb_per_op", "kB"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_bytes_per_op", "bytes"},
	{"loadgen.cpu_ms_per_op", "ms"},
	{"trace_overhead_pct", "%"},
	{"span_coverage_pct", "%"},
	{"error_rate", "fraction"},
	{"machine_slowdown", "ratio"},
}

// spanMetrics maps per-layer time metrics onto the spans whose time per
// op they report.
var spanMetrics = map[string][]string{
	"detect.evaluate_ms":   {"detect.row"},
	"detect.matrix_ms":     {"detect.matrix"},
	"detect.nominals_ms":   {"detect.nominals", "detect.nominal"},
	"detect.cells_ms":      {"detect.cells"},
	"dft.apply_ms":         {"dft.apply"},
	"core.optimize_ms":     {"core.optimize"},
	"core.opamps_ms":       {"core.opamps"},
	"analysis.region_ms":   {"analysis.region"},
	"jobs.enqueue_wait_ms": {"jobs.enqueue_wait"},
	"jobs.run_ms":          {"jobs.run"},
}

// addSpanMetrics sets every span-derived time metric to its time per
// unit of the log.
func addSpanMetrics(layers map[string]float64, l *spanLog) {
	if l.traces == 0 {
		return
	}
	for metric, spans := range spanMetrics {
		sum := 0.0
		for _, s := range spans {
			if a := l.totals[s]; a != nil {
				sum += a.TotalMs
			}
		}
		layers[metric] = sum / float64(l.traces)
	}
}

// libTrace collects the per-layer evidence of a traced library run.
type libTrace struct {
	ops        *spanLog
	points     int // grid points the sweep probes solved
	counters   map[string]float64
	peakTerms  float64
	allocs     float64
	allocBytes float64
	// untracedOps counts the ops the allocation figures cover.
	untracedOps int
	cpu0        procSample
}

func newLibTrace(cfg config) *libTrace {
	lt := &libTrace{ops: newSpanLog("traced op"), counters: make(map[string]float64)}
	if cfg.trace {
		lt.cpu0, _ = readProc("self") // a failed read shows as a zero CPU baseline
	}
	return lt
}

// addCounters folds one op's registry delta in.
func (lt *libTrace) addCounters(before, after map[string]float64) {
	for k, v := range deltas(before, after) {
		lt.counters[k] += v
	}
	lt.peakTerms = math.Max(lt.peakTerms, after["boolexpr_petrick_peak_terms"])
}

// addOp exports traced op n: its op span first, then its probes.
func (lt *libTrace) addOp(n int, lat time.Duration, points int) error {
	roots, err := exportLibraryTrace()
	if err != nil {
		return err
	}
	if len(roots) == 0 {
		return fmt.Errorf("traced op %d recorded no spans", n)
	}
	lt.ops.add(flattenSpans(fmt.Sprintf("op-%d", n), roots, 0), ms(lat))
	lt.points += points
	return nil
}

// layers computes the per-layer metrics and writes the trace file.
func (lt *libTrace) layers(cfg config, w *window, self procSample) map[string]float64 {
	ops := float64(w.attempted)
	layers := map[string]float64{
		"boolexpr.peak_terms":   lt.peakTerms,
		"loadgen.cpu_ms_per_op": (self.cpuS - lt.cpu0.cpuS) * 1000 / ops,
	}
	for metric, counter := range libCounters {
		layers[metric] = lt.counters[counter] / ops
	}
	if in := lt.counters["boolexpr_absorb_terms_in_total"]; in > 0 {
		layers["boolexpr.absorb_keep_ratio"] = lt.counters["boolexpr_absorb_terms_out_total"] / in
	}
	if lt.untracedOps > 0 {
		layers["go.allocs_per_op"] = lt.allocs / float64(lt.untracedOps)
		layers["go.alloc_bytes_per_op"] = lt.allocBytes / float64(lt.untracedOps)
	}
	addSpanMetrics(layers, lt.ops)
	if a := lt.ops.totals["mna.sweep"]; a != nil && lt.points > 0 {
		layers["mna.point_us"] = a.TotalMs * 1000 / float64(lt.points)
	}
	w.finishTrace(cfg, layers, lt.ops)
	return layers
}

// finishTrace adds the metrics every traced run shares, renders the self
// time tables and writes the trace file. The first log holds the traced
// ops.
func (w *window) finishTrace(cfg config, layers map[string]float64, logs ...*spanLog) {
	// Overhead compares traced with untraced ops of the same input, so a
	// mix of cheap and costly inputs does not masquerade as overhead.
	traced := w.byKind(func(i int) bool { return w.traced[i] })
	untraced := w.byKind(func(i int) bool { return !w.traced[i] })
	sum, n := 0.0, 0
	for kind, t := range traced {
		if u := untraced[kind]; len(u) > 0 {
			sum += median(t)/median(u) - 1
			n++
		}
	}
	if n > 0 {
		layers["trace_overhead_pct"] = 100 * sum / float64(n)
	}
	layers["error_rate"] = float64(w.failed) / float64(w.attempted)
	if ops := logs[0]; ops.wallMs > 0 {
		layers["span_coverage_pct"] = 100 * ops.coveredMs / ops.wallMs
	}
	tf := &traceFile{Workload: cfg.workload, Seed: cfg.seed, Totals: make(map[string]map[string]*spanAgg)}
	var b strings.Builder
	for _, l := range logs {
		printSelfTimes(&b, l)
		tf.Spans = append(tf.Spans, l.spans...)
		tf.Totals[l.unit] = l.totals
	}
	w.table = b.String()
	path := filepath.Join(cfg.workDir, "trace-"+cfg.workload+".json")
	if err := writeTraceFile(path, tf); err != nil {
		w.note("trace file: %v", err)
		return
	}
	w.note("trace written to %s", path)
}
