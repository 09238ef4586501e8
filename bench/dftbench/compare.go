package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// bound is one end-to-end metric of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []bound `json:"end_to_end"`
}

// Verdicts of compare.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// minPairs and winShare are the pairs rule: a gain is claimed only over
// at least minPairs parent/change pairs of which the change wins at least
// winShare, with medians further apart than the parent's interquartile
// range.
const (
	minPairs = 10
	winShare = 0.9
)

// floors are absolute bounds, in the metric's own unit: a metric may
// worsen by its relative bound or by its floor, whichever is larger.
// BENCHMARK.json holds relative bounds only. Set-up times of a few tenths
// of a second move by a large share with small absolute changes, so
// setup_s regresses only when it worsens by more than 0.25 s as well.
var floors = map[string]float64{"setup_s": 0.25}

// allowed is the share of median by which a metric may worsen.
func (bd bound) allowed(median float64) float64 {
	return math.Max(bd.Bound, floors[bd.Name]/median)
}

// verdict judges one metric of one workload: a is the parent's runs, b the
// change's, paired in order (run i of a ran next to run i of b).
type verdict struct {
	medA, medB float64
	change     float64 // (medB − medA) / medA
	spreadA    float64 // parent's interquartile range / median
	wins       int     // pairs the change won
	pairs      int
	outcome    string
}

func judge(a, b []float64, bd bound) verdict {
	v := verdict{medA: median(a), medB: median(b), pairs: min(len(a), len(b))}
	v.change = (v.medB - v.medA) / v.medA
	q1, q3 := quartiles(a) // NaN for a single run, which never resolves
	iqr := q3 - q1
	v.spreadA = iqr / v.medA
	lower := bd.Better == "lower"
	better := func(x, y float64) bool { // x better than y
		if lower {
			return x < y
		}
		return x > y
	}
	for i := 0; i < v.pairs; i++ {
		if better(b[i], a[i]) {
			v.wins++
		}
	}
	worse := v.change
	if !lower {
		worse = -worse
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	allowed := bd.allowed(v.medA)
	switch {
	case worse > allowed:
		v.outcome = regressed
	case v.pairs >= minPairs && float64(v.wins) >= winShare*float64(v.pairs) &&
		better(v.medB, v.medA) && math.Abs(v.medB-v.medA) > iqr:
		v.outcome = improved
	case !(v.spreadA <= allowed) && !allBetter:
		v.outcome = unresolved
	default:
		v.outcome = unchanged
	}
	return v
}

// runCompare implements `dftbench compare A.json B.json`: A is the
// parent's results file, B the change's. It prints one row per workload
// with every end-to-end metric's verdict and exits 2 when any regressed.
// With -raw it judges the metrics as measured instead of at reference
// speed.
func runCompare(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	boundsPath := fs.String("bounds", "BENCHMARK.json", "benchmark definition holding the end-to-end bounds")
	measured := fs.Bool("raw", false, "judge the metrics as measured, before scaling to reference speed")
	if err := fs.Parse(args); err != nil {
		return exitError(2)
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compare: want two results files (parent, change), got %d", fs.NArg())
	}
	raw, err := os.ReadFile(*boundsPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", *boundsPath, err)
	}
	a, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	if *measured {
		a, b = asMeasured(a), asMeasured(b)
	}
	if anyRegressed := compareRecords(stdout, bf.EndToEnd, a, b); anyRegressed {
		return exitError(2)
	}
	return nil
}

// asMeasured replaces each record's metrics by the values as measured; a
// record without them keeps none.
func asMeasured(recs []record) []record {
	out := make([]record, len(recs))
	for i, r := range recs {
		out[i] = r
		out[i].Metrics = r.Raw
	}
	return out
}

// compareRecords prints the verdict table and reports whether any metric
// regressed. Only untraced runs are compared.
func compareRecords(w io.Writer, bounds []bound, a, b []record) bool {
	byWorkload := func(recs []record) map[string][]record {
		out := make(map[string][]record)
		for _, r := range recs {
			if !r.Trace {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
		return out
	}
	wa, wb := byWorkload(a), byWorkload(b)
	var names []string
	for n := range wa {
		if len(wb[n]) > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	series := func(recs []record, metric string) []float64 {
		var out []float64
		for _, r := range recs {
			if m, ok := r.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
		return out
	}
	anyRegressed := false
	fmt.Fprintf(w, "%-11s %-16s %12s %12s %8s %8s %7s %6s  %s\n",
		"workload", "metric", "parent", "change", "Δ%", "IQR%", "bound%", "wins", "verdict")
	for _, n := range names {
		failedA, failedB := 0, 0
		for _, r := range wa[n] {
			failedA += r.Failed
		}
		for _, r := range wb[n] {
			failedB += r.Failed
		}
		for _, bd := range bounds {
			x, y := series(wa[n], bd.Name), series(wb[n], bd.Name)
			if len(x) == 0 || len(y) == 0 {
				continue
			}
			v := judge(x, y, bd)
			if v.outcome == improved && failedB > failedA {
				v.outcome = unresolved // a gain does not count when more ops fail
			}
			anyRegressed = anyRegressed || v.outcome == regressed
			fmt.Fprintf(w, "%-11s %-16s %12.5g %12.5g %+8.2f %8.2f %7.1f %3d/%-2d  %s\n",
				n, bd.Name, v.medA, v.medB, 100*v.change, 100*v.spreadA, 100*bd.allowed(v.medA), v.wins, v.pairs, v.outcome)
		}
		if failedA+failedB > 0 {
			fmt.Fprintf(w, "%-11s failed ops: parent %d, change %d\n", n, failedA, failedB)
		}
	}
	return anyRegressed
}
