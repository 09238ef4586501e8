package core

import (
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"sort"
	"testing"

	"analogdft/internal/boolexpr"
	"analogdft/internal/circuits"
	"analogdft/internal/detect"
	"analogdft/internal/dft"
	"analogdft/internal/fault"
	"analogdft/internal/paperdata"
)

// buildCandidateRef is the straightforward candidate construction the
// row-table builder must reproduce bit for bit: follower opamps looked up
// per row by name, coverage and ⟨ω-det⟩ from the Matrix methods.
func buildCandidateRef(mx *detect.Matrix, chain []string, rows []int) Candidate {
	sorted := append([]int(nil), rows...)
	sort.Ints(sorted)
	var labels []string
	opampSet := map[string]bool{}
	for _, i := range sorted {
		labels = append(labels, mx.Configs[i].Label())
		for _, op := range FollowerOpampsOf(mx.Configs[i], chain) {
			opampSet[op] = true
		}
	}
	var opamps []string
	for _, name := range chain {
		if opampSet[name] {
			opamps = append(opamps, name)
		}
	}
	return Candidate{
		Rows:        sorted,
		Labels:      labels,
		Coverage:    mx.CoverageOf(sorted),
		AvgOmegaDet: mx.AvgBestOmega(sorted),
		NumConfigs:  len(sorted),
		Opamps:      opamps,
		NumOpamps:   len(opamps),
	}
}

// optimizeOpampsRef is §4.3 the straightforward way: the full §4.2
// optimization for its SOP, then every configuration's follower opamps
// looked up by name.
func optimizeOpampsRef(mx *detect.Matrix, chain []string) (*OpampResult, error) {
	base, err := Optimize(mx, chain, ConfigCountCost)
	if err != nil {
		return nil, err
	}
	opampIdx := make(map[string]int, len(chain))
	for i, name := range chain {
		opampIdx[name] = i
	}
	followers := func(cfg dft.Configuration) uint64 {
		var m uint64
		for _, op := range FollowerOpampsOf(cfg, chain) {
			m |= 1 << uint(opampIdx[op])
		}
		return m
	}
	xiStar := mapLiteralsRef(base.SOP, len(chain), func(row int) uint64 { return followers(mx.Configs[row]) })
	minimal := xiStar.Minimal()
	if len(minimal) == 0 {
		return nil, ErrNoSolution
	}
	res := &OpampResult{XiStar: xiStar}
	type choice struct {
		mask  uint64
		names []string
		rows  []int
		avg   float64
	}
	var choices []choice
	for _, m := range minimal {
		var names []string
		for _, b := range boolexpr.Bits(m) {
			names = append(names, chain[b])
		}
		var rows []int
		for i, cfg := range mx.Configs {
			if followers(cfg)&^m == 0 {
				rows = append(rows, i)
			}
		}
		choices = append(choices, choice{mask: m, names: names, rows: rows, avg: mx.AvgBestOmega(rows)})
		res.OpampSets = append(res.OpampSets, names)
	}
	best := choices[0]
	for _, c := range choices[1:] {
		if c.avg > best.avg || (c.avg == best.avg && c.mask < best.mask) {
			best = c
		}
	}
	res.Chosen = best.names
	res.UsableRows = best.rows
	for _, i := range best.rows {
		res.UsableLabels = append(res.UsableLabels, mx.Configs[i].Label())
	}
	res.Coverage = mx.CoverageOf(best.rows)
	res.AvgOmegaDet = best.avg
	return res, nil
}

// mapLiteralsRef is ξ* as §4.3 derives it: every term of ξ's sum of
// products with each row i replaced by its follower opamps f(i), then
// absorbed (duplicates and supersets dropped) and sorted by popcount, then
// value.
func mapLiteralsRef(s *boolexpr.SOP, newN int, f func(row int) uint64) *boolexpr.SOP {
	mapped := make([]uint64, len(s.Terms))
	for k, t := range s.Terms {
		for _, i := range boolexpr.Bits(t) {
			mapped[k] |= f(i)
		}
	}
	var terms []uint64
	for k, m := range mapped {
		absorbed := false
		for j, u := range mapped {
			if u&^m == 0 && (u != m || j < k) {
				absorbed = true
				break
			}
		}
		if !absorbed {
			terms = append(terms, m)
		}
	}
	sort.Slice(terms, func(a, b int) bool {
		if pa, pb := bits.OnesCount64(terms[a]), bits.OnesCount64(terms[b]); pa != pb {
			return pa < pb
		}
		return terms[a] < terms[b]
	})
	return &boolexpr.SOP{N: newN, Terms: terms}
}

// oracleCase is one matrix the candidate oracle runs on.
type oracleCase struct {
	name  string
	mx    *detect.Matrix
	chain []string
}

// oracleCases simulates every library bench (leapfrog-lp5 both in full,
// 127 rows, which only the greedy cover accepts, and limited to two
// followers) and a five-opamp lowpass chain at a 20% deviation universe
// and 31 points, the paper matrix under a chain with a repeated opamp
// name, and the two wide-chain matrices with the largest covers:
// multistage-lp-6 and biquad-cascade-2 at 25% and 61 points.
func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	lib := circuits.Library()
	ms5, err := circuits.MultiStageLowpass(5, 10e3)
	if err != nil {
		t.Fatal(err)
	}
	lib["multistage-lp-5"] = ms5
	names := make([]string, 0, len(lib))
	for name := range lib {
		names = append(names, name)
	}
	sort.Strings(names)
	cases := []oracleCase{{"paper/repeated-name", paperdata.Matrix(), []string{"OP1", "OP2", "OP1"}}}
	for _, name := range names {
		bench := lib[name]
		mod, err := dft.Apply(bench.Circuit, bench.Chain)
		if err != nil {
			t.Fatal(err)
		}
		faults := fault.DeviationUniverse(bench.Circuit, 0.20)
		for _, maxFollowers := range []int{0, 2} {
			if maxFollowers != 0 && name != "leapfrog-lp5" {
				continue
			}
			mx, err := detect.BuildMatrix(mod, faults, detect.Options{Points: 31, MaxFollowers: maxFollowers})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cases = append(cases, oracleCase{name, mx, bench.Chain})
		}
	}
	ms6, err := circuits.MultiStageLowpass(6, 10e3)
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range []*circuits.Bench{ms6, lib["biquad-cascade-2"]} {
		cases = append(cases, oracleCase{bench.Circuit.Name + "/frac=0.25", wideMatrix(t, bench, 0.25), bench.Chain})
	}
	return cases
}

// wideMatrix builds the matrix of bench under a deviation universe of
// size frac at 61 points over the derived region, as the wide-chain
// benchmark workload does.
func wideMatrix(tb testing.TB, bench *circuits.Bench, frac float64) *detect.Matrix {
	tb.Helper()
	mod, err := dft.Apply(bench.Circuit, bench.Chain)
	if err != nil {
		tb.Fatal(err)
	}
	mx, err := detect.BuildMatrix(mod, fault.DeviationUniverse(bench.Circuit, frac), detect.Options{Points: 61})
	if err != nil {
		tb.Fatalf("%s: %v", bench.Circuit.Name, err)
	}
	return mx
}

// TestCandidatesMatchReference holds every candidate of Optimize, the
// greedy and exact covers and the whole §4.3 result to the straightforward
// construction, field by field with == on floats (reflect.DeepEqual also
// tells nil from empty slices, so the JSON encodings agree too).
func TestCandidatesMatchReference(t *testing.T) {
	for _, c := range oracleCases(t) {
		res, err := Optimize(c.mx, c.chain, ConfigCountCost)
		if c.mx.NumConfigs() > boolexpr.MaxLiterals {
			if !errors.Is(err, boolexpr.ErrTooLarge) {
				t.Errorf("%s: %d rows: err = %v, want ErrTooLarge", c.name, c.mx.NumConfigs(), err)
			}
		} else if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		} else {
			if len(res.Candidates) != len(res.SOP.Terms) {
				t.Fatalf("%s: %d candidates for %d terms", c.name, len(res.Candidates), len(res.SOP.Terms))
			}
			for k, term := range res.SOP.Terms {
				if want := buildCandidateRef(c.mx, c.chain, boolexpr.Bits(term)); !reflect.DeepEqual(res.Candidates[k], want) {
					t.Fatalf("%s: candidate %d = %+v, want %+v", c.name, k, res.Candidates[k], want)
				}
			}
			got, err := OptimizeOpamps(c.mx, c.chain)
			want, wantErr := optimizeOpampsRef(c.mx, c.chain)
			if err != nil || wantErr != nil {
				t.Fatalf("%s: OptimizeOpamps err = %v, reference %v", c.name, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: OptimizeOpamps = %+v, want %+v", c.name, got, want)
			}
		}

		rows, err := boolexpr.GreedyCover(c.mx.Det)
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := GreedySolution(c.mx, c.chain)
		if err != nil {
			t.Fatal(err)
		}
		if want := buildCandidateRef(c.mx, c.chain, rows); !reflect.DeepEqual(*greedy, want) {
			t.Fatalf("%s: greedy = %+v, want %+v", c.name, *greedy, want)
		}
		if rows, err = boolexpr.MinCover(c.mx.Det, nil); err != nil {
			continue
		}
		exact, err := ExactMinSolution(c.mx, c.chain)
		if err != nil {
			t.Fatal(err)
		}
		if want := buildCandidateRef(c.mx, c.chain, rows); !reflect.DeepEqual(*exact, want) {
			t.Fatalf("%s: exact = %+v, want %+v", c.name, *exact, want)
		}
	}
}

// TestEmptyCandidateMatchesReference covers the empty configuration set:
// when no fault is detectable ξ is empty and its one candidate selects no
// row, which Matrix.AvgBestOmega scores over every row.
func TestEmptyCandidateMatchesReference(t *testing.T) {
	mx := paperdata.Matrix()
	for i := range mx.Det {
		for j := range mx.Det[i] {
			mx.Det[i][j] = false
		}
	}
	res, err := Optimize(mx, paperdata.OpampNames, ConfigCountCost)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 1 || res.Candidates[0].Rows != nil {
		t.Fatalf("candidates = %+v, want one empty set", res.Candidates)
	}
	if want := buildCandidateRef(mx, paperdata.OpampNames, nil); !reflect.DeepEqual(res.Candidates[0], want) {
		t.Fatalf("empty candidate = %+v, want %+v", res.Candidates[0], want)
	}
}

// TestCandidatesDoNotAlias appends to the first candidate's slices, which
// share their backing arrays with the other candidates', and checks that
// the second candidate is unchanged.
func TestCandidatesDoNotAlias(t *testing.T) {
	res, err := Optimize(paperdata.Matrix(), paperdata.OpampNames, ConfigCountCost)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) < 2 {
		t.Fatalf("%d candidates, want at least 2", len(res.Candidates))
	}
	second := res.Candidates[1]
	want := Candidate{
		Rows:   append([]int(nil), second.Rows...),
		Labels: append([]string(nil), second.Labels...),
		Opamps: append([]string(nil), second.Opamps...),
	}
	first := &res.Candidates[0]
	first.Rows = append(first.Rows, -1)
	first.Labels = append(first.Labels, "X")
	first.Opamps = append(first.Opamps, "X")
	got := res.Candidates[1]
	if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Labels, want.Labels) || !reflect.DeepEqual(got.Opamps, want.Opamps) {
		t.Fatalf("candidate 1 after appending to candidate 0 = %+v, want rows %v labels %v opamps %v", got, want.Rows, want.Labels, want.Opamps)
	}
}

// syntheticMatrix returns a matrix of rows configurations of an n-opamp
// chain (row i is configuration i) whose column j is detected by the rows
// of det[j], every other cell false and every ω-detectability 0.
func syntheticMatrix(n, rows int, det [][]int) (*detect.Matrix, []string) {
	mx := &detect.Matrix{Source: "synthetic"}
	for i := 0; i < rows; i++ {
		mx.Configs = append(mx.Configs, dft.Configuration{Index: i, N: n})
		mx.Det = append(mx.Det, make([]bool, len(det)))
		mx.Omega = append(mx.Omega, make([]float64, len(det)))
	}
	for j, col := range det {
		mx.Faults = append(mx.Faults, fault.Fault{ID: fmt.Sprintf("f%d", j)})
		for _, i := range col {
			mx.Det[i][j] = true
		}
	}
	chain := make([]string, n)
	for b := range chain {
		chain[b] = fmt.Sprintf("OP%d", b+1)
	}
	return mx, chain
}

// TestOptimizeOpampsBeyondRowBudget pins where the opamp-space expansion
// changed OptimizeOpamps' answer: 20 faults each detected by their own
// pair of rows 1..40 of a 6-opamp chain give ξ 2^20 row-space terms, past
// Petrick's default budget, so Optimize fails with ErrTooLarge, while ξ*
// fits in 6 opamps and OptimizeOpamps answers with the minimal opamp
// masks whose usable rows cover every fault (found here by trying all 64).
// A matrix of more rows than boolexpr.MaxLiterals is still ErrTooLarge.
func TestOptimizeOpampsBeyondRowBudget(t *testing.T) {
	det := make([][]int, 20)
	for j := range det {
		det[j] = []int{2*j + 1, 2*j + 2}
	}
	mx, chain := syntheticMatrix(6, 41, det)
	if _, err := Optimize(mx, chain, ConfigCountCost); !errors.Is(err, boolexpr.ErrTooLarge) {
		t.Fatalf("Optimize err = %v, want ErrTooLarge", err)
	}
	res, err := OptimizeOpamps(mx, chain)
	if err != nil {
		t.Fatal(err)
	}
	covers := func(m uint64) bool {
		for _, col := range det {
			if !slices.ContainsFunc(col, func(i int) bool { return uint64(i)&^m == 0 }) {
				return false
			}
		}
		return true
	}
	var want []uint64
	for m := uint64(0); m < 64; m++ {
		if covers(m) && !slices.ContainsFunc(want, func(u uint64) bool { return u&^m == 0 }) {
			want = append(want, m)
		}
	}
	slices.SortFunc(want, func(a, b uint64) int {
		if pa, pb := bits.OnesCount64(a), bits.OnesCount64(b); pa != pb {
			return pa - pb
		}
		return int(a) - int(b)
	})
	if !reflect.DeepEqual(res.XiStar.Terms, want) {
		t.Fatalf("ξ* = %#x, want %#x", res.XiStar.Terms, want)
	}
	if res.Coverage != 1 {
		t.Fatalf("coverage = %g, want 1", res.Coverage)
	}

	mx, chain = syntheticMatrix(7, boolexpr.MaxLiterals+1, [][]int{{1}})
	if _, err := OptimizeOpamps(mx, chain); !errors.Is(err, boolexpr.ErrTooLarge) {
		t.Fatalf("%d rows: err = %v, want ErrTooLarge", boolexpr.MaxLiterals+1, err)
	}
}
