package boolexpr

import (
	"errors"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// paperMatrix is Figure 5 of the paper: rows C0..C6, columns
// fR1 fR2 fR3 fR4 fR5 fR6 fC1 fC2.
func paperMatrix() [][]bool {
	b := func(xs ...int) []bool {
		out := make([]bool, len(xs))
		for i, x := range xs {
			out[i] = x == 1
		}
		return out
	}
	return [][]bool{
		b(1, 0, 0, 1, 0, 0, 0, 0), // C0
		b(0, 0, 1, 0, 1, 1, 0, 1), // C1
		b(1, 1, 0, 1, 1, 1, 1, 0), // C2
		b(0, 0, 0, 0, 1, 1, 0, 0), // C3
		b(1, 1, 1, 1, 1, 0, 0, 0), // C4
		b(0, 0, 1, 0, 0, 0, 0, 1), // C5
		b(1, 1, 0, 1, 0, 0, 0, 0), // C6
	}
}

var paperFaultIDs = []string{"fR1", "fR2", "fR3", "fR4", "fR5", "fR6", "fC1", "fC2"}

func cname(i int) string { return "C" + string(rune('0'+i)) }

func TestMaskBitsRoundTrip(t *testing.T) {
	m := MaskOf(0, 3, 5)
	if m != 0b101001 {
		t.Fatalf("mask = %b", m)
	}
	got := Bits(m)
	want := []int{0, 3, 5}
	if len(got) != 3 {
		t.Fatalf("Bits = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Bits = %v, want %v", got, want)
		}
	}
	if Bits(0) != nil {
		t.Fatal("Bits(0) should be nil")
	}
}

func TestMaskOfPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MaskOf(64)
}

func TestFromMatrixPaper(t *testing.T) {
	e, undet, err := FromMatrix(paperMatrix(), paperFaultIDs)
	if err != nil {
		t.Fatal(err)
	}
	if len(undet) != 0 {
		t.Fatalf("undetectable = %v, want none", undet)
	}
	if len(e.Clauses) != 8 || e.N != 7 {
		t.Fatalf("clauses = %d, N = %d", len(e.Clauses), e.N)
	}
	// fR1 clause: C0+C2+C4+C6.
	if e.Clauses[0] != MaskOf(0, 2, 4, 6) {
		t.Fatalf("fR1 clause = %v", Bits(e.Clauses[0]))
	}
	// fC1 clause: C2 only.
	if e.Clauses[6] != MaskOf(2) {
		t.Fatalf("fC1 clause = %v", Bits(e.Clauses[6]))
	}
	if e.Tags[6] != "fC1" {
		t.Fatalf("tag = %q", e.Tags[6])
	}
}

func TestFromMatrixUndetectable(t *testing.T) {
	det := [][]bool{
		{true, false, false},
		{false, false, true},
	}
	e, undet, err := FromMatrix(det, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if len(undet) != 1 || undet[0] != 1 {
		t.Fatalf("undetectable = %v, want [1]", undet)
	}
	if len(e.Clauses) != 2 {
		t.Fatalf("clauses = %d", len(e.Clauses))
	}
}

func TestFromMatrixErrors(t *testing.T) {
	if _, _, err := FromMatrix(nil, nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty: %v", err)
	}
	ragged := [][]bool{{true, false}, {true}}
	if _, _, err := FromMatrix(ragged, nil); err == nil {
		t.Error("ragged accepted")
	}
	big := make([][]bool, 65)
	for i := range big {
		big[i] = []bool{true}
	}
	if _, _, err := FromMatrix(big, nil); !errors.Is(err, ErrTooLarge) {
		t.Errorf("too large: %v", err)
	}
}

func TestEssentialPaper(t *testing.T) {
	// §4.1: C2 is the unique essential configuration (fC1 column).
	e, _, _ := FromMatrix(paperMatrix(), paperFaultIDs)
	if ess := e.Essential(); ess != MaskOf(2) {
		t.Fatalf("essential = %v, want [2]", Bits(ess))
	}
}

func TestReduceByPaper(t *testing.T) {
	// Figure 6: after choosing C2, only fR3 and fC2 remain, giving
	// ξ_compl = (C1+C4+C5)·(C1+C5).
	e, _, _ := FromMatrix(paperMatrix(), paperFaultIDs)
	red := e.ReduceBy(MaskOf(2))
	if len(red.Clauses) != 2 {
		t.Fatalf("reduced clauses = %d, want 2", len(red.Clauses))
	}
	if red.Clauses[0] != MaskOf(1, 4, 5) || red.Tags[0] != "fR3" {
		t.Fatalf("clause 0 = %v (%s)", Bits(red.Clauses[0]), red.Tags[0])
	}
	if red.Clauses[1] != MaskOf(1, 5) || red.Tags[1] != "fC2" {
		t.Fatalf("clause 1 = %v (%s)", Bits(red.Clauses[1]), red.Tags[1])
	}
}

func TestPetrickPaperDerivation(t *testing.T) {
	// Full §4.1 pipeline: essential + Petrick over the reduced expression,
	// recombined. The absorbed SOP of the paper's
	// ξ = C1C2 + C1C2C5 + C1C2C4 + C2C4C5 + C2C5 is C1·C2 + C2·C5.
	e, _, _ := FromMatrix(paperMatrix(), paperFaultIDs)
	ess := e.Essential()
	sop, err := e.ReduceBy(ess).Petrick(0)
	if err != nil {
		t.Fatal(err)
	}
	full := sop.WithRequired(ess)
	if len(full.Terms) != 2 {
		t.Fatalf("terms = %s", full.Format(cname))
	}
	if full.Terms[0] != MaskOf(1, 2) || full.Terms[1] != MaskOf(2, 5) {
		t.Fatalf("SOP = %s, want C1·C2 + C2·C5", full.Format(cname))
	}
	// §4.2: both are minimal with 2 configurations.
	min := full.Minimal()
	if len(min) != 2 || bits.OnesCount64(min[0]) != 2 {
		t.Fatalf("minimal = %v", min)
	}
}

func TestPetrickDirectEqualsStaged(t *testing.T) {
	// Expanding ξ directly must give the same absorbed SOP as the
	// essential-first staged derivation.
	e, _, _ := FromMatrix(paperMatrix(), paperFaultIDs)
	direct, err := e.Petrick(0)
	if err != nil {
		t.Fatal(err)
	}
	ess := e.Essential()
	staged, _ := e.ReduceBy(ess).Petrick(0)
	stagedFull := staged.WithRequired(ess)
	if len(direct.Terms) != len(stagedFull.Terms) {
		t.Fatalf("direct %s vs staged %s", direct.Format(cname), stagedFull.Format(cname))
	}
	for i := range direct.Terms {
		if direct.Terms[i] != stagedFull.Terms[i] {
			t.Fatalf("direct %s vs staged %s", direct.Format(cname), stagedFull.Format(cname))
		}
	}
}

func TestPetrickEmptyExpr(t *testing.T) {
	e := &Expr{N: 3}
	sop, err := e.Petrick(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sop.Terms) != 1 || sop.Terms[0] != 0 {
		t.Fatalf("empty expansion = %v", sop.Terms)
	}
}

func TestPetrickBudget(t *testing.T) {
	// 2^k blowup expression: k disjoint clauses of 2 fresh literals each
	// cannot absorb, so the budget must trip.
	e := &Expr{N: 40}
	for i := 0; i < 20; i++ {
		e.Clauses = append(e.Clauses, MaskOf(2*i, 2*i+1))
	}
	if _, err := e.Petrick(100); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestAbsorb(t *testing.T) {
	terms := absorb([]uint64{MaskOf(1, 2, 3), MaskOf(1, 2), MaskOf(1, 2), MaskOf(4)})
	if len(terms) != 2 {
		t.Fatalf("absorbed = %v", terms)
	}
	if terms[0] != MaskOf(4) || terms[1] != MaskOf(1, 2) {
		t.Fatalf("absorbed = %v", terms)
	}
}

func TestFormat(t *testing.T) {
	s := &SOP{N: 6, Terms: []uint64{MaskOf(1, 2), MaskOf(2, 5)}}
	if got := s.Format(cname); got != "C1·C2 + C2·C5" {
		t.Fatalf("Format = %q", got)
	}
	empty := &SOP{N: 3}
	if empty.Format(cname) != "0" {
		t.Fatal("empty SOP format")
	}
	one := &SOP{N: 3, Terms: []uint64{0}}
	if one.Format(cname) != "1" {
		t.Fatal("unit SOP format")
	}
	e := &Expr{N: 3, Clauses: []uint64{MaskOf(0, 2), MaskOf(1)}}
	if got := e.Format(cname); got != "(C0+C2)·(C1)" {
		t.Fatalf("Expr format = %q", got)
	}
	if (&Expr{N: 3}).Format(cname) != "1" {
		t.Fatal("empty Expr format")
	}
}

func TestGreedyCoverPaper(t *testing.T) {
	rows, err := GreedyCover(paperMatrix())
	if err != nil {
		t.Fatal(err)
	}
	if !CoverIsComplete(paperMatrix(), rows) {
		t.Fatalf("greedy cover %v incomplete", rows)
	}
	if len(rows) != 2 {
		t.Fatalf("greedy cover = %v, want size 2", rows)
	}
}

func TestMinCoverPaper(t *testing.T) {
	rows, err := MinCover(paperMatrix(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("min cover = %v, want size 2", rows)
	}
	if !CoverIsComplete(paperMatrix(), rows) {
		t.Fatal("min cover incomplete")
	}
	// Lexicographic tie-break: {C1,C2} < {C2,C5}.
	if rows[0] != 1 || rows[1] != 2 {
		t.Fatalf("min cover = %v, want [1 2]", rows)
	}
}

func TestMinCoverWeighted(t *testing.T) {
	// Penalize C1 heavily: the optimizer must flip to {C2, C5}.
	cost := func(row int) float64 {
		if row == 1 {
			return 10
		}
		return 1
	}
	rows, err := MinCover(paperMatrix(), cost)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0] != 2 || rows[1] != 5 {
		t.Fatalf("weighted cover = %v, want [2 5]", rows)
	}
}

func TestMinCoverNegativeCost(t *testing.T) {
	if _, err := MinCover(paperMatrix(), func(int) float64 { return -1 }); err == nil {
		t.Fatal("negative cost accepted")
	}
}

func TestCoverEdgeCases(t *testing.T) {
	if _, err := GreedyCover(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("greedy empty: %v", err)
	}
	if _, err := MinCover(nil, nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("min empty: %v", err)
	}
	// All-false matrix: nothing coverable, empty cover is complete.
	det := [][]bool{{false, false}, {false, false}}
	rows, err := MinCover(det, nil)
	if err != nil || len(rows) != 0 {
		t.Errorf("all-false: %v %v", rows, err)
	}
	if !CoverIsComplete(det, nil) {
		t.Error("empty cover of uncoverable matrix should be complete")
	}
	g, err := GreedyCover(det)
	if err != nil || len(g) != 0 {
		t.Errorf("greedy all-false: %v %v", g, err)
	}
}

func TestCoverIsCompleteNegative(t *testing.T) {
	det := paperMatrix()
	if CoverIsComplete(det, []int{0}) {
		t.Fatal("C0 alone cannot cover the paper matrix")
	}
	if CoverIsComplete(nil, nil) {
		t.Fatal("empty matrix cannot be complete")
	}
}

// randomMatrix builds a random detectability matrix where every column has
// at least one true cell.
func randomMatrix(rng *rand.Rand, rows, cols int) [][]bool {
	det := make([][]bool, rows)
	for i := range det {
		det[i] = make([]bool, cols)
	}
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			det[i][j] = rng.Float64() < 0.35
		}
		det[rng.Intn(rows)][j] = true
	}
	return det
}

// Property: MinCover always produces a complete cover no larger than
// greedy's, and every Petrick minimal term is also a complete cover of the
// same size as MinCover's.
func TestCoverAgreementProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 3 + rng.Intn(5)
		cols := 2 + rng.Intn(7)
		det := randomMatrix(rng, rows, cols)

		exact, err := MinCover(det, nil)
		if err != nil || !CoverIsComplete(det, exact) {
			return false
		}
		greedy, err := GreedyCover(det)
		if err != nil || !CoverIsComplete(det, greedy) {
			return false
		}
		if len(exact) > len(greedy) {
			return false
		}
		e, _, err := FromMatrix(det, nil)
		if err != nil {
			return false
		}
		sop, err := e.Petrick(0)
		if err != nil {
			return false
		}
		for _, term := range sop.Minimal() {
			if bits.OnesCount64(term) != len(exact) {
				return false
			}
			if !CoverIsComplete(det, Bits(term)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: absorbed SOPs contain no term that is a superset of another.
func TestAbsorbProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		terms := make([]uint64, len(raw))
		for i, r := range raw {
			terms[i] = uint64(r)
		}
		out := absorb(terms)
		for a := range out {
			for b := range out {
				if a != b && out[a]&out[b] == out[a] {
					return false // out[a] ⊆ out[b]: b should have been absorbed
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
