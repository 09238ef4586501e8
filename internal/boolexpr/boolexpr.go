// Package boolexpr implements the covering algebra of §4.1 of the paper:
// the boolean expression ξ = Π_faults (Σ_configs d[i][j]·C_i) built from a
// fault detectability matrix, essential-configuration extraction, the
// reduced expression ξ_compl, and the product-of-sums → sum-of-products
// expansion (Petrick's method with absorption) whose product terms are the
// configuration sets guaranteeing maximum fault coverage.
//
// Literals are configuration indices packed into uint64 bitmasks, which
// caps expressions at 64 literals — far beyond the 2^n configurations of
// any realistic opamp chain (the paper's circuits have 3–5 opamps).
//
// The package also provides a greedy set-cover heuristic and an exact
// branch-and-bound minimum-cost cover used as the scalable baseline and
// ablation comparison.
package boolexpr

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// MaxLiterals is the largest number of distinct literals an expression may
// carry (bitmask width).
const MaxLiterals = 64

// ErrTooLarge is returned when an expression exceeds MaxLiterals or a
// Petrick expansion exceeds its term budget.
var ErrTooLarge = errors.New("boolexpr: expression too large")

// ErrEmpty is returned when an operation needs a non-empty expression.
var ErrEmpty = errors.New("boolexpr: empty expression")

// MaskOf packs literal indices into a bitmask.
func MaskOf(idxs ...int) uint64 {
	var m uint64
	for _, i := range idxs {
		if i < 0 || i >= MaxLiterals {
			panic(fmt.Sprintf("boolexpr: literal %d out of range", i))
		}
		m |= 1 << uint(i)
	}
	return m
}

// Bits unpacks a bitmask into sorted literal indices.
func Bits(mask uint64) []int {
	var out []int
	for mask != 0 {
		i := bits.TrailingZeros64(mask)
		out = append(out, i)
		mask &^= 1 << uint(i)
	}
	return out
}

// Expr is a product of sums (POS): every clause (bitmask of literals) must
// be satisfied by picking at least one of its literals.
type Expr struct {
	// N is the number of literal positions (configuration count).
	N int
	// Clauses holds one bitmask per clause.
	Clauses []uint64
	// Tags optionally labels each clause (fault IDs); may be nil.
	Tags []string
}

// FromMatrix builds ξ from a detectability matrix det[row][col] (row =
// configuration literal, col = fault). Columns with no true cell are
// undetectable faults: they produce no clause (the maximum fault coverage
// simply does not include them) and their indices are reported separately.
// Column tags label the clauses when non-nil.
func FromMatrix(det [][]bool, colTags []string) (*Expr, []int, error) {
	rows := len(det)
	if rows == 0 {
		return nil, nil, ErrEmpty
	}
	if rows > MaxLiterals {
		return nil, nil, fmt.Errorf("%w: %d rows", ErrTooLarge, rows)
	}
	cols := len(det[0])
	for i, r := range det {
		if len(r) != cols {
			return nil, nil, fmt.Errorf("boolexpr: ragged matrix row %d", i)
		}
	}
	e := &Expr{N: rows}
	var undetectable []int
	for j := 0; j < cols; j++ {
		var clause uint64
		for i := 0; i < rows; i++ {
			if det[i][j] {
				clause |= 1 << uint(i)
			}
		}
		if clause == 0 {
			undetectable = append(undetectable, j)
			continue
		}
		e.Clauses = append(e.Clauses, clause)
		if colTags != nil {
			tag := ""
			if j < len(colTags) {
				tag = colTags[j]
			}
			e.Tags = append(e.Tags, tag)
		}
	}
	return e, undetectable, nil
}

// Essential returns the mask of essential literals: literals that are the
// only satisfier of some clause (single-bit clauses). In the paper these
// are the essential configurations that must appear in any solution.
func (e *Expr) Essential() uint64 {
	var m uint64
	for _, c := range e.Clauses {
		if bits.OnesCount64(c) == 1 {
			m |= c
		}
	}
	return m
}

// ReduceBy removes every clause already satisfied by the chosen literal
// mask — the construction of the reduced fault detectability matrix /
// ξ_compl of Figure 6. Tags follow their clauses.
func (e *Expr) ReduceBy(chosen uint64) *Expr {
	out := &Expr{N: e.N}
	for i, c := range e.Clauses {
		if c&chosen != 0 {
			continue
		}
		out.Clauses = append(out.Clauses, c)
		if e.Tags != nil {
			out.Tags = append(out.Tags, e.Tags[i])
		}
	}
	return out
}

// SOP is a sum of products: any term (bitmask of literals, all required)
// satisfies the expression.
type SOP struct {
	N     int
	Terms []uint64
}

// absorb removes duplicate terms and any term that is a superset of
// another (X + X·Y = X), returning terms sorted by popcount then value for
// determinism. It reuses terms' backing array.
func absorb(terms []uint64) []uint64 {
	bAbsorbIn.Add(int64(len(terms)))
	out := minimal(terms)
	bAbsorbOut.Add(int64(len(out)))
	return out
}

// minimal is absorb without the counters: it sorts terms by termCompare
// and keeps, in place, those with no kept subset. A subset sorts first, so
// one pass over the kept prefix decides each term. No terms give nil.
func minimal(terms []uint64) []uint64 {
	if len(terms) == 0 {
		return nil
	}
	sortTerms(terms)
	out := terms[:0]
	for _, t := range terms {
		if !hasSubsetOf(out, t) {
			out = append(out, t)
		}
	}
	return out
}

// termCompare orders terms by popcount, then value: the order of every
// SOP this package returns.
func termCompare(a, b uint64) int {
	if pa, pb := bits.OnesCount64(a), bits.OnesCount64(b); pa != pb {
		return pa - pb
	}
	return cmp.Compare(a, b)
}

// sortTerms sorts terms by termCompare.
func sortTerms(terms []uint64) { slices.SortFunc(terms, termCompare) }

// Petrick expands the POS into an absorbed SOP (Petrick's method). The
// expansion aborts with ErrTooLarge when the intermediate term count
// exceeds maxTerms (pass 0 for the default of 200 000). An empty
// expression expands to the single empty term (nothing to cover). New
// code should prefer PetrickContext, which supports cancellation.
func (e *Expr) Petrick(maxTerms int) (*SOP, error) {
	return e.PetrickContext(context.Background(), maxTerms)
}

// petrickCancelStride is how many product terms the expansion multiplies
// out between cancellation checks: small enough that a cancelled
// optimization stops promptly, large enough that the atomic context poll
// stays invisible next to the term arithmetic.
const petrickCancelStride = 4096

// PetrickContext is Petrick with cancellation: ctx is polled between
// clauses and between every petrickCancelStride product terms of the
// distribution step, so even a combinatorially exploding expansion stops
// promptly (returning ctx's error) when the caller cancels.
//
// The expansion runs no general absorption pass. The running terms always
// form an antichain (no term contains another), and multiplying an
// antichain by one clause needs only a narrow check (DESIGN.md §18):
// terms that already satisfy the clause survive unchanged, the products
// t·l of the other terms never absorb one another, and a product t·l can
// only be absorbed by a surviving term whose sole literal in the clause is
// l. Terms are sorted by (popcount, value) once, at the end. The term
// budget and the absorption counters see the same pre-absorption counts
// as a clause-by-clause absorb would.
func (e *Expr) PetrickContext(ctx context.Context, maxTerms int) (*SOP, error) {
	if maxTerms <= 0 {
		maxTerms = 200000
	}
	terms := []uint64{0}
	var next, rest []uint64
	// single[l] holds the terms whose only literal in the current clause
	// is l: the only terms that can absorb a product t·l.
	var single [MaxLiterals][]uint64
	for _, clause := range e.Clauses {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bPetrickClauses.Inc()
		for l := range single {
			single[l] = single[l][:0]
		}
		next, rest = next[:0], rest[:0]
		for _, t := range terms {
			in := t & clause
			if in == 0 {
				rest = append(rest, t)
				continue
			}
			if in&(in-1) == 0 {
				l := bits.TrailingZeros64(in)
				single[l] = append(single[l], t)
			}
			next = append(next, t) // already satisfies the clause
		}
		expanded := len(next) + len(rest)*bits.OnesCount64(clause)
		bPetrickPeak.SetMax(float64(expanded))
		if expanded > maxTerms {
			return nil, fmt.Errorf("%w: %d intermediate terms", ErrTooLarge, expanded)
		}
		bAbsorbIn.Add(int64(expanded))
		for ti, t := range rest {
			if ti%petrickCancelStride == petrickCancelStride-1 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			for c := clause; c != 0; c &= c - 1 {
				l := bits.TrailingZeros64(c)
				if p := t | 1<<uint(l); !hasSubsetOf(single[l], p) {
					next = append(next, p)
				}
			}
		}
		bAbsorbOut.Add(int64(len(next)))
		terms, next = next, terms
	}
	if len(terms) == 0 {
		return &SOP{N: e.N}, nil
	}
	sortTerms(terms)
	return &SOP{N: e.N, Terms: terms}, nil
}

// PetrickMapped expands the POS with every literal i replaced by the
// literal mask f(i) of a new literal space of width newN, and absorbs:
// the SOP Π_clauses Σ_{i∈clause} f(i). This is the §4.3 ξ*, with f(config)
// the configuration's follower opamps (Table 3), computed without the
// row-space expansion: it equals mapping Petrick's terms through f and
// absorbing (DESIGN.md §18), because both are the minimal masks m whose
// literals {i : f(i) ⊆ m} satisfy every clause.
//
// Each clause is multiplied in as the minimal masks among its mapped
// literals, and the running terms are absorbed after every clause, so
// they stay an antichain. A clause one of whose literals maps to 0 is
// already satisfied by every term and is skipped. A term containing one of
// the clause's masks survives unchanged; the others expand to one product
// per mask, and the budget (maxTerms, 0 for the default of 200 000) bounds
// that count, as Petrick's does. ctx is polled between clauses and between
// every petrickCancelStride expanded terms. The expansion reuses its
// buffers, so it allocates a constant number of times per call.
func (e *Expr) PetrickMapped(ctx context.Context, newN int, f func(i int) uint64, maxTerms int) (*SOP, error) {
	if maxTerms <= 0 {
		maxTerms = 200000
	}
	// One slab backs the running terms, the next terms and a clause's
	// masks (at most e.N); the term buffers grow past it only on wide
	// expansions.
	const termCap = 32
	slab := make([]uint64, 2*termCap+min(e.N, MaxLiterals))
	terms := slab[:1:termCap]
	next := slab[termCap : termCap : 2*termCap]
	opts := slab[2*termCap : 2*termCap]
clauses:
	for _, clause := range e.Clauses {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		opts = opts[:0]
		for c := clause; c != 0; c &= c - 1 {
			m := f(bits.TrailingZeros64(c))
			if m == 0 {
				continue clauses
			}
			opts = append(opts, m)
		}
		opts = minimal(opts)
		bPetrickClauses.Inc()
		next = next[:0]
		rest := 0
		for _, t := range terms {
			if hasSubsetOf(opts, t) {
				next = append(next, t)
			} else {
				terms[rest] = t
				rest++
			}
		}
		expanded := len(next) + rest*len(opts)
		bPetrickPeak.SetMax(float64(expanded))
		if expanded > maxTerms {
			return nil, fmt.Errorf("%w: %d intermediate terms", ErrTooLarge, expanded)
		}
		for ti, t := range terms[:rest] {
			if ti%petrickCancelStride == petrickCancelStride-1 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			for _, o := range opts {
				next = append(next, t|o)
			}
		}
		terms, next = absorb(next), terms
	}
	return &SOP{N: newN, Terms: terms}, nil
}

// hasSubsetOf reports whether some term of ts is a subset of t.
func hasSubsetOf(ts []uint64, t uint64) bool {
	for _, s := range ts {
		if s&^t == 0 {
			return true
		}
	}
	return false
}

// WithRequired prepends the required literal mask to every term (the
// ξ = ξ_ess·ξ_compl product) and re-absorbs. When the terms are in
// (popcount, value) order and none shares a literal with required — an
// SOP this package returned, expanded from ReduceBy(required) — ORing
// required in keeps them absorbed and in order, so the absorption pass is
// skipped (its counters still see every term kept).
func (s *SOP) WithRequired(required uint64) *SOP {
	terms := make([]uint64, len(s.Terms))
	skipAbsorb := true
	for i, t := range s.Terms {
		terms[i] = t | required
		if t&required != 0 || i > 0 && termCompare(s.Terms[i-1], t) >= 0 {
			skipAbsorb = false
		}
	}
	if !skipAbsorb || len(terms) == 0 {
		return &SOP{N: s.N, Terms: absorb(terms)}
	}
	bAbsorbIn.Add(int64(len(terms)))
	bAbsorbOut.Add(int64(len(terms)))
	return &SOP{N: s.N, Terms: terms}
}

// Minimal returns the terms with the fewest literals (ties all returned,
// sorted). This is the §4.2 "minimum number of configurations" selection.
func (s *SOP) Minimal() []uint64 {
	if len(s.Terms) == 0 {
		return nil
	}
	min := math.MaxInt
	for _, t := range s.Terms {
		if p := bits.OnesCount64(t); p < min {
			min = p
		}
	}
	var out []uint64
	for _, t := range s.Terms {
		if bits.OnesCount64(t) == min {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Format renders the SOP with a literal naming function, e.g.
// "C1·C2 + C2·C5".
func (s *SOP) Format(name func(i int) string) string {
	if len(s.Terms) == 0 {
		return "0"
	}
	out := ""
	for k, t := range s.Terms {
		if k > 0 {
			out += " + "
		}
		if t == 0 {
			out += "1"
			continue
		}
		for bi, i := range Bits(t) {
			if bi > 0 {
				out += "·"
			}
			out += name(i)
		}
	}
	return out
}

// FormatExpr renders the POS with a literal naming function, e.g.
// "(C0+C2)·(C1)".
func (e *Expr) Format(name func(i int) string) string {
	if len(e.Clauses) == 0 {
		return "1"
	}
	out := ""
	for k, c := range e.Clauses {
		if k > 0 {
			out += "·"
		}
		out += "("
		for bi, i := range Bits(c) {
			if bi > 0 {
				out += "+"
			}
			out += name(i)
		}
		out += ")"
	}
	return out
}
