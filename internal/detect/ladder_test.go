package detect

import (
	"context"
	"slices"
	"testing"

	"analogdft/internal/analysis"
	"analogdft/internal/circuits"
	"analogdft/internal/dft"
	"analogdft/internal/fault"
	"analogdft/internal/obs"
)

// fallbackTags builds the one-fault matrix under a private tracer and
// returns the ordered "from" tags of its detect.fallback spans together
// with the engine_fallback_total delta of the build.
func fallbackTags(t *testing.T, m *dft.Modified, f fault.Fault, opts Options) (*Matrix, []string, int64) {
	t.Helper()
	tr := obs.NewTracer()
	tr.SetEnabled(true)
	ctx := obs.ContextWithTracer(context.Background(), tr)
	before := obs.Reg().Snapshot()["engine_fallback_total"].Value
	mx, err := BuildMatrixContext(ctx, m, fault.List{f}, opts)
	if err != nil {
		t.Fatalf("%s: %v", f.ID, err)
	}
	delta := int64(obs.Reg().Snapshot()["engine_fallback_total"].Value - before)
	var tags []string
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		if n.Name == "detect.fallback" {
			tags = append(tags, n.Tags["from"])
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, root := range tr.Export().Spans {
		walk(root)
	}
	return mx, tags, delta
}

// TestFallbackLadderPinned pins the cell pipeline's fallback ladder on the
// paper biquad: for each fault kind, the number of
// fallbacks, the ordered rungs they fell from (one span per rung left, per
// cell, in cell order at Workers=1) and the resulting matrix column. The
// column is pinned as the per-configuration count of detecting grid
// points, which fixes Det (count > 0) and Omega (100·count/points) exactly.
func TestFallbackLadderPinned(t *testing.T) {
	bench := circuits.PaperBiquad()
	m, err := dft.Apply(bench.Circuit, bench.Chain)
	if err != nil {
		t.Fatal(err)
	}
	const points = 31
	base := Options{
		Eps:       0.10,
		MeasFloor: 0.01,
		Region:    analysis.Region{LoHz: 100, HiHz: 5600},
		Points:    points,
		Workers:   1,
	}
	faults := map[string]fault.Fault{
		"deviation": {ID: "fR2", Component: "R2", Kind: fault.Deviation, Factor: 1.2},
		"open":      {ID: "R1:open", Component: "R1", Kind: fault.Open},
		"short":     {ID: "C1:short", Component: "C1", Kind: fault.Short},
		"opamp":     {ID: "OP2:gain", Component: "OP2", Kind: fault.OpampGain, Factor: 0.01},
	}
	rows := func(tag ...string) []string {
		var out []string
		for range 7 {
			out = append(out, tag...)
		}
		return out
	}
	full := []int{31, 0, 31, 0, 31, 0, 31}
	none := []int{0, 0, 0, 0, 0, 0, 0}
	cases := []struct {
		fault  string
		tags   []string
		counts []int
		errs   int
	}{
		{"deviation", nil, []int{0, 0, 27, 0, 0, 0, 0}, 0},
		{"open", rows("incremental"), full, 0},
		{"short", rows("incremental"), full, 0},
		{"opamp", rows("incremental"), none, 7},
	}
	for _, c := range cases {
		label := c.fault
		opts := base
		mx, tags, delta := fallbackTags(t, m, faults[c.fault], opts)
		if !slices.Equal(tags, c.tags) {
			t.Errorf("%s: fallback tags %q, want %q", label, tags, c.tags)
		}
		if delta != int64(len(c.tags)) {
			t.Errorf("%s: engine_fallback_total delta %d, want %d", label, delta, len(c.tags))
		}
		if mx.NumConfigs() != len(c.counts) {
			t.Fatalf("%s: %d configurations, want %d", label, mx.NumConfigs(), len(c.counts))
		}
		got := make([]int, mx.NumConfigs())
		for i := range got {
			got[i] = int(mx.Omega[i][0]*points/100 + 0.5)
			if w := 100 * float64(got[i]) / points; mx.Omega[i][0] != w {
				t.Errorf("%s: Omega[%d] = %v, not a whole number of grid points", label, i, mx.Omega[i][0])
			}
			if mx.Det[i][0] != (got[i] > 0) {
				t.Errorf("%s: Det[%d] = %t with Omega %v", label, i, mx.Det[i][0], mx.Omega[i][0])
			}
		}
		if !slices.Equal(got, c.counts) {
			t.Errorf("%s: detecting points per configuration %v, want %v", label, got, c.counts)
		}
		// The ideal opamps of the paper biquad have no gain to fault, so
		// OP2:gain fails on every rung and records one error per row.
		if len(mx.CellErrors) != c.errs {
			t.Errorf("%s: %d cell errors, want %d: %v", label, len(mx.CellErrors), c.errs, mx.CellErrors)
		}
	}
}
