package core

import (
	"errors"
	"reflect"
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
	xiStar := base.SOP.MapLiterals(len(chain), func(row int) uint64 { return followers(mx.Configs[row]) })
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

// oracleCase is one matrix the candidate oracle runs on.
type oracleCase struct {
	name  string
	mx    *detect.Matrix
	chain []string
}

// oracleCases simulates every library bench (leapfrog-lp5 both in full,
// 127 rows, which only the greedy cover accepts, and limited to two
// followers) and a five-opamp lowpass chain at a 20% deviation universe,
// plus the paper matrix under a chain with a repeated opamp name.
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
	return cases
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
