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

// ladderRungs builds the one-fault matrix under a private tracer and
// returns it with the build's detect_rank1_cells_total and
// engine_patch_total deltas: the cells the rank-1 walk answered and the
// patches the tail applied. It fails the test on any detect.fallback
// span: no cell may step from the patch to a clone.
func ladderRungs(t *testing.T, m *dft.Modified, f fault.Fault, opts Options) (mx *Matrix, rank1, patches int64) {
	t.Helper()
	tr := obs.NewTracer()
	tr.SetEnabled(true)
	ctx := obs.ContextWithTracer(context.Background(), tr)
	counter := func(name string) int64 { return int64(obs.Reg().Snapshot()[name].Value) }
	r0, p0 := counter("detect_rank1_cells_total"), counter("engine_patch_total")
	mx, err := BuildMatrixContext(ctx, m, fault.List{f}, opts)
	if err != nil {
		t.Fatalf("%s: %v", f.ID, err)
	}
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		if n.Name == "detect.fallback" {
			t.Errorf("%s: a detect.fallback span: no cell may leave the patch rung", f.ID)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, root := range tr.Export().Spans {
		walk(root)
	}
	return mx, counter("detect_rank1_cells_total") - r0, counter("engine_patch_total") - p0
}

// TestFallbackLadderPinned pins the cell pipeline's ladder on the paper
// biquad: for each fault kind, the rung that answered every row's cell —
// the rank-1 walk for the deviation, which patches none of its 7 rows
// here, and the in-place patch for every other kind, one per row — and
// the resulting matrix column. The column is pinned as the
// per-configuration count of detecting grid points, which fixes Det
// (count > 0) and Omega (100·count/points) exactly.
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
	full := []int{31, 0, 31, 0, 31, 0, 31}
	none := []int{0, 0, 0, 0, 0, 0, 0}
	cases := []struct {
		fault          string
		rank1, patches int64
		counts         []int
		errs           int
	}{
		{"deviation", 7, 0, []int{0, 0, 27, 0, 0, 0, 0}, 0},
		{"open", 0, 7, full, 0},
		{"short", 0, 7, full, 0},
		{"opamp", 0, 0, none, 7},
	}
	for _, c := range cases {
		label := c.fault
		mx, rank1, patches := ladderRungs(t, m, faults[c.fault], base)
		if rank1 != c.rank1 || patches != c.patches {
			t.Errorf("%s: %d rank-1 cells and %d patches, want %d and %d", label, rank1, patches, c.rank1, c.patches)
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
		// OP2:gain fails its patch with Apply's error, once per row.
		if len(mx.CellErrors) != c.errs {
			t.Errorf("%s: %d cell errors, want %d: %v", label, len(mx.CellErrors), c.errs, mx.CellErrors)
		}
		if c.errs > 0 {
			_, want := faults[c.fault].Apply(bench.Circuit)
			for _, ce := range mx.CellErrors {
				if want == nil || ce.Err.Error() != want.Error() {
					t.Errorf("%s: cell error %q, Apply's %v", label, ce.Err, want)
				}
			}
		}
	}
}
