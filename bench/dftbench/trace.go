package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"analogdft"
)

// spanNode is the JSON span tree both the library tracer export and the
// dftserved job-trace endpoint produce.
type spanNode struct {
	Name     string      `json:"name"`
	StartMs  float64     `json:"start_ms"`
	DurMs    float64     `json:"dur_ms"`
	Children []*spanNode `json:"children"`
}

// spanRec is one span of the written trace: a flat record with an
// explicit parent, so the file needs no tree walk to read.
type spanRec struct {
	Trace  string  `json:"trace"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// exportLibraryTrace snapshots the process tracer as a span tree. The
// tracer's span type is internal to the library, so the export goes
// through its JSON form.
func exportLibraryTrace() ([]*spanNode, error) {
	raw, err := json.Marshal(analogdft.Observability().Tracer.Export())
	if err != nil {
		return nil, fmt.Errorf("export trace: %w", err)
	}
	var tr struct {
		Spans []*spanNode `json:"spans"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		return nil, fmt.Errorf("export trace: %w", err)
	}
	return tr.Spans, nil
}

// flattenSpans turns span trees into records of one trace, shifting every
// time by offsetMs.
func flattenSpans(trace string, roots []*spanNode, offsetMs float64) []spanRec {
	var out []spanRec
	var walk func(n *spanNode, parent int)
	walk = func(n *spanNode, parent int) {
		id := len(out)
		start := offsetMs + n.StartMs
		out = append(out, spanRec{Trace: trace, ID: id, Parent: parent, Name: n.Name, Start: start, End: start + n.DurMs})
		for _, c := range n.Children {
			walk(c, id)
		}
	}
	for _, r := range roots {
		walk(r, -1)
	}
	return out
}

// covered returns the length of the union of intervals clipped to
// [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	var clipped [][2]float64
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if b > a {
			clipped = append(clipped, [2]float64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	total := 0.0
	var cur [2]float64
	for k, v := range clipped {
		if k > 0 && v[0] <= cur[1] {
			cur[1] = max(cur[1], v[1])
			continue
		}
		total += cur[1] - cur[0]
		cur = v
	}
	return total + cur[1] - cur[0]
}

// spanAgg accumulates one span name's time: total duration, and self
// time (duration minus the part its children cover).
type spanAgg struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// aggregate folds the records of one trace into per-name totals.
func aggregate(recs []spanRec, into map[string]*spanAgg) {
	kids := make(map[int][][2]float64)
	for _, r := range recs {
		if r.Parent >= 0 {
			kids[r.Parent] = append(kids[r.Parent], [2]float64{r.Start, r.End})
		}
	}
	for _, r := range recs {
		a := into[r.Name]
		if a == nil {
			a = &spanAgg{}
			into[r.Name] = a
		}
		dur := r.End - r.Start
		a.Count++
		a.TotalMs += dur
		a.SelfMs += dur - covered(kids[r.ID], r.Start, r.End)
	}
}

// maxTraceOps bounds how many traces a trace file keeps spans for; the
// totals cover every trace.
const maxTraceOps = 200

// spanLog accumulates the traces of one kind of unit (a traced op, a
// sampled job): per-name totals, and how much of the units' wall time the
// spans under each unit's root cover.
type spanLog struct {
	unit      string
	spans     []spanRec // of the first maxTraceOps traces
	totals    map[string]*spanAgg
	traces    int
	wallMs    float64
	coveredMs float64
}

func newSpanLog(unit string) *spanLog {
	return &spanLog{unit: unit, totals: make(map[string]*spanAgg)}
}

// add folds in one trace whose first record is the unit's root, taking
// wallMs of wall time (the root's own duration when 0).
func (s *spanLog) add(recs []spanRec, wallMs float64) {
	if len(recs) == 0 {
		return
	}
	aggregate(recs, s.totals)
	root := recs[0]
	if wallMs == 0 {
		wallMs = root.End - root.Start
	}
	var iv [][2]float64
	for _, r := range recs {
		if r.Parent == root.ID {
			iv = append(iv, [2]float64{r.Start, r.End})
		}
	}
	s.traces++
	s.wallMs += wallMs
	s.coveredMs += covered(iv, root.Start, root.End)
	if s.traces <= maxTraceOps {
		s.spans = append(s.spans, recs...)
	}
}

// merge folds another log of the same unit into s.
func (s *spanLog) merge(o *spanLog) {
	for name, a := range o.totals {
		b := s.totals[name]
		if b == nil {
			b = &spanAgg{}
			s.totals[name] = b
		}
		b.Count += a.Count
		b.TotalMs += a.TotalMs
		b.SelfMs += a.SelfMs
	}
	s.spans = append(s.spans, o.spans...)
	s.traces += o.traces
	s.wallMs += o.wallMs
	s.coveredMs += o.coveredMs
}

// traceFile is the JSON written by a -trace run.
type traceFile struct {
	Workload string                         `json:"workload"`
	Seed     int64                          `json:"seed"`
	Spans    []spanRec                      `json:"spans"`
	Totals   map[string]map[string]*spanAgg `json:"totals"` // per unit, per span name
}

func writeTraceFile(path string, tf *traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(tf); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// printSelfTimes writes a log's self time table as comment lines: each
// span's time per unit, its self time per unit, and the self time's share
// of the units' wall time.
func printSelfTimes(w io.Writer, s *spanLog) {
	if s.traces == 0 || s.wallMs == 0 {
		return
	}
	names := make([]string, 0, len(s.totals))
	for n := range s.totals {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return s.totals[names[i]].SelfMs > s.totals[names[j]].SelfMs })
	n := float64(s.traces)
	fmt.Fprintf(w, "# self time over %d %ss, %.4g ms wall each, %.1f%% of it under the root's child spans\n",
		s.traces, s.unit, s.wallMs/n, 100*s.coveredMs/s.wallMs)
	fmt.Fprintf(w, "# %-24s %12s %12s %8s\n", "span", "ms/"+s.unit, "self ms", "self %")
	for _, name := range names {
		a := s.totals[name]
		fmt.Fprintf(w, "# %-24s %12.4f %12.4f %8.2f\n", name, a.TotalMs/n, a.SelfMs/n, 100*a.SelfMs/s.wallMs)
	}
}
