// Package core implements the paper's primary contribution (§4): the
// optimized application of the multi-configuration DFT technique. Starting
// from a fault detectability matrix it
//
//  1. enforces the fundamental requirement — maximum fault coverage — by
//     building the covering expression ξ, extracting essential
//     configurations and expanding the remainder with Petrick's method
//     (every resulting product term is a configuration set with maximum
//     coverage);
//  2. applies a 2nd-order, user-defined cost function over those candidate
//     sets (number of configurations for test time, §4.2; number of
//     configurable opamps for silicon/performance, §4.3; or any custom
//     CostFunction);
//  3. breaks remaining ties with the 3rd-order requirement: the highest
//     average best-case ω-detectability.
//
// OptimizeOpamps (§4.3) needs no configuration-space expansion: it
// expands ξ* straight from ξ in opamp space (boolexpr.PetrickMapped),
// which gives the terms of ξ's sum of products mapped to follower opamps
// and absorbed. So a run of both optimizations pays for one row-space
// Petrick expansion, Optimize's.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"analogdft/internal/boolexpr"
	"analogdft/internal/detect"
	"analogdft/internal/dft"
)

// ErrNoSolution is returned when no configuration set achieves the maximum
// fault coverage (only possible for degenerate matrices).
var ErrNoSolution = errors.New("core: no covering configuration set")

// Candidate is a configuration set satisfying the fundamental requirement.
type Candidate struct {
	// Rows are the matrix row indices of the selected configurations,
	// ascending.
	Rows []int
	// Labels are the configuration labels (e.g. "C2", "C5").
	Labels []string
	// Coverage is the fault coverage of the set (fraction of all faults).
	Coverage float64
	// AvgOmegaDet is the average best-case ω-detectability (percent) over
	// all faults when testing with this set.
	AvgOmegaDet float64
	// NumConfigs is len(Rows).
	NumConfigs int
	// Opamps is the union of opamps required in follower mode by the
	// selected configurations — exactly the opamps that must be made
	// configurable to emulate the set.
	Opamps []string
	// NumOpamps is len(Opamps).
	NumOpamps int
}

// String implements fmt.Stringer.
func (c *Candidate) String() string {
	return fmt.Sprintf("{%s} (cfgs=%d opamps=%d ⟨ω-det⟩=%.4g%%)",
		strings.Join(c.Labels, ","), c.NumConfigs, c.NumOpamps, c.AvgOmegaDet)
}

// CostFunction is a 2nd-order requirement: a user-defined cost over
// candidates, minimized during selection.
type CostFunction struct {
	Name string
	Cost func(c *Candidate) float64
}

// ConfigCountCost minimizes the number of test configurations — the test
// time / BIST control cost of §4.2.
var ConfigCountCost = CostFunction{
	Name: "configuration count (test time)",
	Cost: func(c *Candidate) float64 { return float64(c.NumConfigs) },
}

// OpampCountCost minimizes the number of configurable opamps — the silicon
// area / performance cost of §4.3.
var OpampCountCost = CostFunction{
	Name: "configurable-opamp count (area/performance)",
	Cost: func(c *Candidate) float64 { return float64(c.NumOpamps) },
}

// WeightedCost blends configuration count and opamp count with the given
// weights — a simple example of the "user-defined cost functions" the
// paper leaves open.
func WeightedCost(wConfigs, wOpamps float64) CostFunction {
	return CostFunction{
		Name: fmt.Sprintf("weighted (%.3g·configs + %.3g·opamps)", wConfigs, wOpamps),
		Cost: func(c *Candidate) float64 {
			return wConfigs*float64(c.NumConfigs) + wOpamps*float64(c.NumOpamps)
		},
	}
}

// Result is the output of Optimize.
type Result struct {
	// Expr is ξ — the covering expression over matrix rows.
	Expr *boolexpr.Expr
	// EssentialRows are the rows of essential configurations (must appear
	// in every solution).
	EssentialRows []int
	// Reduced is ξ_compl — the expression left after essential rows.
	Reduced *boolexpr.Expr
	// SOP is the absorbed sum-of-products of ξ; every term is a candidate.
	SOP *boolexpr.SOP
	// Candidates are all maximum-coverage configuration sets, in SOP term
	// order (fewest configurations first).
	Candidates []Candidate
	// Undetectable lists fault IDs not detectable in any configuration.
	Undetectable []string
	// MaxCoverage is the maximum achievable fault coverage (fraction).
	MaxCoverage float64
	// CostName records the 2nd-order requirement used.
	CostName string
	// BestByCost are the minimum-cost candidates before the 3rd-order
	// tie-break.
	BestByCost []Candidate
	// Best is the final selection after the ω-detectability tie-break.
	Best *Candidate
}

// FollowerOpampsOf returns the opamps in follower mode under cfg given the
// chain (bit i of the configuration index ⇒ chain[i]).
func FollowerOpampsOf(cfg dft.Configuration, chain []string) []string {
	var out []string
	for i, name := range chain {
		if cfg.Follower(i) {
			out = append(out, name)
		}
	}
	return out
}

// rowTable holds what candidate construction reads per matrix row, built
// once per matrix and chain.
type rowTable struct {
	mx    *detect.Matrix
	chain []string
	rows  []tableRow
	// opampBit[i] is the bit chain[i] sets in a follower mask: that of the
	// last chain entry with its name.
	opampBit []uint64
}

type tableRow struct {
	// followers is the mask of the row's follower-mode opamps, which is
	// also the row's literal in ξ*.
	followers uint64
	label     string // filled on first use
}

func newRowTable(mx *detect.Matrix, chain []string) rowTable {
	tab := rowTable{
		mx:       mx,
		chain:    chain,
		rows:     make([]tableRow, len(mx.Configs)),
		opampBit: make([]uint64, len(chain)),
	}
	for i, name := range chain {
		last := i
		for j := i + 1; j < len(chain); j++ {
			if chain[j] == name {
				last = j
			}
		}
		tab.opampBit[i] = 1 << uint(last)
	}
	for r, cfg := range mx.Configs {
		for i := range chain {
			if cfg.Follower(i) {
				tab.rows[r].followers |= tab.opampBit[i]
			}
		}
	}
	return tab
}

// label returns row r's configuration label.
func (tab *rowTable) label(r int) string {
	if tab.rows[r].label == "" {
		tab.rows[r].label = tab.mx.Configs[r].Label()
	}
	return tab.rows[r].label
}

// buildCandidate assembles a Candidate from matrix rows in any order.
func buildCandidate(mx *detect.Matrix, chain []string, rows []int) Candidate {
	sorted := append([]int(nil), rows...)
	sort.Ints(sorted)
	var labels []string
	if len(sorted) > 0 {
		labels = make([]string, len(sorted))
	}
	tab := newRowTable(mx, chain)
	return tab.candidate(sorted, labels, nil)
}

// candidates assembles the Candidate of every term (a mask of matrix
// rows). One pass sizes every candidate's Rows, Labels and Opamps, which
// are then carved from one slab each, capped so that appending to one
// candidate's slice cannot write into the next one's. The empty term keeps
// nil Rows, Labels and Opamps, as buildCandidate has them.
func (tab *rowTable) candidates(terms []uint64) []Candidate {
	nRows, nOpamps := 0, 0
	for _, t := range terms {
		nRows += bits.OnesCount64(t)
		nOpamps += tab.numOpamps(t)
	}
	rowSlab, labelSlab, opampSlab := make([]int, nRows), make([]string, nRows), make([]string, nOpamps)
	out := make([]Candidate, len(terms))
	for k, t := range terms {
		var rows []int
		var labels, opamps []string
		if n := bits.OnesCount64(t); n > 0 {
			rows, rowSlab = rowSlab[:n:n], rowSlab[n:]
			labels, labelSlab = labelSlab[:n:n], labelSlab[n:]
			for i, m := 0, t; m != 0; i, m = i+1, m&(m-1) {
				rows[i] = bits.TrailingZeros64(m)
			}
		}
		if n := tab.numOpamps(t); n > 0 {
			opamps, opampSlab = opampSlab[:0:n], opampSlab[n:]
		}
		out[k] = tab.candidate(rows, labels, opamps)
	}
	return out
}

// numOpamps returns how many chain entries the rows of the mask put in
// follower mode: the length of their candidate's Opamps.
func (tab *rowTable) numOpamps(rowMask uint64) int {
	var followers uint64
	for m := rowMask; m != 0; m &= m - 1 {
		followers |= tab.rows[bits.TrailingZeros64(m)].followers
	}
	n := 0
	for _, b := range tab.opampBit {
		if followers&b != 0 {
			n++
		}
	}
	return n
}

// candidate assembles the Candidate of the given ascending matrix rows. It
// keeps rows, fills labels (one per row) and appends the follower opamps
// to opamps.
func (tab *rowTable) candidate(rows []int, labels, opamps []string) Candidate {
	var followers uint64
	for k, r := range rows {
		labels[k] = tab.label(r)
		followers |= tab.rows[r].followers
	}
	for i, name := range tab.chain {
		if followers&tab.opampBit[i] != 0 {
			opamps = append(opamps, name)
		}
	}
	coverage, avgOmega := tab.score(rows)
	return Candidate{
		Rows:        rows,
		Labels:      labels,
		Coverage:    coverage,
		AvgOmegaDet: avgOmega,
		NumConfigs:  len(rows),
		Opamps:      opamps,
		NumOpamps:   len(opamps),
	}
}

// score returns the fault coverage and the average best-case
// ω-detectability of testing with the given rows, in one pass: the values
// Matrix.CoverageOf and Matrix.AvgBestOmega return, bit for bit (nil rows
// score no fault covered and, as AvgBestOmega has it, every row's ω).
func (tab *rowTable) score(rows []int) (coverage, avgOmega float64) {
	mx := tab.mx
	if rows == nil {
		return mx.CoverageOf(nil), mx.AvgBestOmega(nil)
	}
	nf := mx.NumFaults()
	if nf == 0 {
		return 0, 0
	}
	covered, sum := 0, 0.0
	for j := 0; j < nf; j++ {
		hit, best := false, 0.0
		for _, i := range rows {
			hit = hit || mx.Det[i][j]
			if i < len(mx.Omega) && mx.Omega[i][j] > best {
				best = mx.Omega[i][j]
			}
		}
		if hit {
			covered++
		}
		sum += best
	}
	return float64(covered) / float64(nf), sum / float64(nf)
}

// Optimize runs the full §4 pipeline on a detectability matrix. chain maps
// configuration bits to opamp names (needed for opamp-count costs; it may
// be nil when cost never reads Opamps). The cost function is the 2nd-order
// requirement; the 3rd-order tie-break (maximum average ω-detectability)
// and a final lexicographic tie-break make the result deterministic. New
// code should prefer OptimizeContext, which supports cancellation.
func Optimize(mx *detect.Matrix, chain []string, cost CostFunction) (*Result, error) {
	return OptimizeContext(context.Background(), mx, chain, cost)
}

// OptimizeContext is Optimize with cancellation: the Petrick expansion —
// the only part of the pipeline that can blow up combinatorially — polls
// ctx between clauses and between product-term batches, so an in-flight
// optimization abandons the expansion promptly (returning ctx's error)
// when the caller cancels.
func OptimizeContext(ctx context.Context, mx *detect.Matrix, chain []string, cost CostFunction) (*Result, error) {
	if cost.Cost == nil {
		cost = ConfigCountCost
	}
	res, err := cover(ctx, mx)
	if err != nil {
		return nil, err
	}
	res.MaxCoverage = mx.FaultCoverage()
	res.CostName = cost.Name
	tab := newRowTable(mx, chain)
	res.Candidates = tab.candidates(res.SOP.Terms)

	// 2nd order: keep the minimum-cost candidates.
	minCost := math.Inf(1)
	for i := range res.Candidates {
		if c := cost.Cost(&res.Candidates[i]); c < minCost {
			minCost = c
		}
	}
	for i := range res.Candidates {
		if cost.Cost(&res.Candidates[i]) == minCost {
			res.BestByCost = append(res.BestByCost, res.Candidates[i])
		}
	}

	// 3rd order: maximum average ω-detectability; final lexicographic
	// tie-break on rows.
	best := res.BestByCost[0]
	for _, c := range res.BestByCost[1:] {
		switch {
		case c.AvgOmegaDet > best.AvgOmegaDet:
			best = c
		case c.AvgOmegaDet == best.AvgOmegaDet && lexLessInts(c.Rows, best.Rows):
			best = c
		}
	}
	res.Best = &best
	return res, nil
}

// cover builds ξ from the matrix, extracts the essential rows, expands
// ξ_compl with Petrick's method and returns the absorbed SOP of ξ, every
// term of which is a maximum-coverage configuration set: the part of the
// Result that both §4 optimizations start from.
func cover(ctx context.Context, mx *detect.Matrix) (*Result, error) {
	expr, undetCols, err := boolexpr.FromMatrix(mx.Det, mx.Faults.IDs())
	if err != nil {
		return nil, err
	}
	var undetectable []string
	for _, j := range undetCols {
		undetectable = append(undetectable, mx.Faults[j].ID)
	}
	ess := expr.Essential()
	reduced := expr.ReduceBy(ess)
	sop, err := reduced.PetrickContext(ctx, 0)
	if err != nil {
		return nil, err
	}
	full := sop.WithRequired(ess)
	if len(full.Terms) == 0 {
		return nil, ErrNoSolution
	}
	return &Result{
		Expr:          expr,
		EssentialRows: boolexpr.Bits(ess),
		Reduced:       reduced,
		SOP:           full,
		Undetectable:  undetectable,
	}, nil
}

func lexLessInts(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// OpampResult is the output of OptimizeOpamps (§4.3).
type OpampResult struct {
	// XiStar is ξ* — the SOP mapped into opamp space and absorbed.
	XiStar *boolexpr.SOP
	// OpampSets are the minimal configurable-opamp alternatives.
	OpampSets [][]string
	// Chosen is the selected opamp set after the 3rd-order tie-break.
	Chosen []string
	// UsableRows are the matrix rows emulatable with the chosen opamps
	// (every follower opamp of the row is configurable).
	UsableRows []int
	// UsableLabels are the labels of UsableRows.
	UsableLabels []string
	// Coverage is the fault coverage achieved by the usable rows.
	Coverage float64
	// AvgOmegaDet is the best-case ⟨ω-det⟩ over the usable rows — §4.3
	// uses all of them, which maximizes the 3rd-order requirement.
	AvgOmegaDet float64
}

// OptimizeOpamps runs the §4.3 partial-DFT optimization: find the smallest
// set of opamps to make configurable such that some maximum-coverage
// configuration set remains emulatable, then use every configuration that
// set of opamps permits (the ω-detectability-maximal choice).
//
// ξ* is expanded straight from ξ in opamp space (boolexpr.PetrickMapped),
// not from ξ's sum of products, so the term budget bounds the opamp-space
// expansion: a matrix whose configuration-space cover exceeds the budget
// (Optimize fails with boolexpr.ErrTooLarge) can still be answered here.
// A matrix of more than boolexpr.MaxLiterals rows is still ErrTooLarge.
func OptimizeOpamps(mx *detect.Matrix, chain []string) (*OpampResult, error) {
	if len(chain) == 0 || len(chain) > boolexpr.MaxLiterals {
		return nil, fmt.Errorf("core: bad chain length %d", len(chain))
	}
	expr, _, err := boolexpr.FromMatrix(mx.Det, nil)
	if err != nil {
		return nil, err
	}
	tab := newRowTable(mx, chain)
	xiStar, err := expr.PetrickMapped(context.Background(), len(chain), func(row int) uint64 { return tab.rows[row].followers }, 0)
	if err != nil {
		return nil, err
	}
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
		for i, row := range tab.rows {
			if row.followers&^m == 0 { // follower set ⊆ chosen opamps
				rows = append(rows, i)
			}
		}
		choices = append(choices, choice{mask: m, names: names, rows: rows, avg: mx.AvgBestOmega(rows)})
		res.OpampSets = append(res.OpampSets, names)
	}
	// 3rd order among minimal opamp sets: max ⟨ω-det⟩, then smallest mask.
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

// Baseline summarizes the brute-force application of the technique: every
// configuration permitted, best-case testing (§3.2 / Graph 2).
type Baseline struct {
	Rows        []int
	Coverage    float64
	AvgOmegaDet float64
	NumConfigs  int
}

// BruteForce evaluates the all-configurations baseline on a matrix.
func BruteForce(mx *detect.Matrix) *Baseline {
	rows := make([]int, mx.NumConfigs())
	for i := range rows {
		rows[i] = i
	}
	return &Baseline{
		Rows:        rows,
		Coverage:    mx.FaultCoverage(),
		AvgOmegaDet: mx.AvgBestOmega(rows),
		NumConfigs:  len(rows),
	}
}

// GreedySolution runs the greedy set-cover heuristic on the matrix and
// wraps it as a Candidate — the scalable baseline used by the ablation
// benchmarks.
func GreedySolution(mx *detect.Matrix, chain []string) (*Candidate, error) {
	rows, err := boolexpr.GreedyCover(mx.Det)
	if err != nil {
		return nil, err
	}
	c := buildCandidate(mx, chain, rows)
	return &c, nil
}

// ExactMinSolution runs the exact branch-and-bound minimum cover (unit
// cost) and wraps it as a Candidate. Unlike Optimize it does not
// enumerate all alternatives, so it scales to larger matrices.
func ExactMinSolution(mx *detect.Matrix, chain []string) (*Candidate, error) {
	rows, err := boolexpr.MinCover(mx.Det, nil)
	if err != nil {
		return nil, err
	}
	c := buildCandidate(mx, chain, rows)
	return &c, nil
}
