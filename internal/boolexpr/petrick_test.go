package boolexpr

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"analogdft/internal/paperdata"
)

// petrickRef is the textbook expansion PetrickContext must reproduce:
// multiply the running SOP by one clause at a time and run a full absorb
// pass after each, with the term budget checked on the pre-absorption
// count. It also returns the largest pre-absorption count it saw, the
// smallest budget under which the expansion succeeds.
func petrickRef(e *Expr, maxTerms int) (*SOP, int, error) {
	if maxTerms <= 0 {
		maxTerms = 200000
	}
	terms, peak := []uint64{0}, 0
	for _, clause := range e.Clauses {
		bPetrickClauses.Inc()
		lits := Bits(clause)
		var next []uint64
		for _, t := range terms {
			if t&clause != 0 {
				next = append(next, t)
				continue
			}
			for _, l := range lits {
				next = append(next, t|1<<uint(l))
			}
		}
		bPetrickPeak.SetMax(float64(len(next)))
		peak = max(peak, len(next))
		if len(next) > maxTerms {
			return nil, peak, fmt.Errorf("%w: %d intermediate terms", ErrTooLarge, len(next))
		}
		terms = absorb(next)
	}
	return &SOP{N: e.N, Terms: terms}, peak, nil
}

// withRequiredRef is WithRequired without the disjoint fast path.
func withRequiredRef(s *SOP, required uint64) *SOP {
	terms := make([]uint64, len(s.Terms))
	for i, t := range s.Terms {
		terms[i] = t | required
	}
	return &SOP{N: s.N, Terms: absorb(terms)}
}

// mapLiteralsRef maps every term of s into a literal space of width newN,
// literal i becoming the mask f(i), and absorbs: ξ* from ξ's row-space
// terms, as §4.3 derives it.
func mapLiteralsRef(s *SOP, newN int, f func(i int) uint64) *SOP {
	terms := make([]uint64, len(s.Terms))
	for k, t := range s.Terms {
		for _, i := range Bits(t) {
			terms[k] |= f(i)
		}
	}
	return &SOP{N: newN, Terms: absorb(terms)}
}

// petrickMappedRef is the clause-by-clause opamp-space expansion the
// budget of PetrickMapped is defined on: each clause becomes the absorbed
// masks of its literals (skipped when one is 0), a term containing one of
// them survives, the others expand to one product per mask, and the result
// is absorbed. It also returns the largest pre-absorption count it saw.
func petrickMappedRef(e *Expr, newN int, f func(i int) uint64, maxTerms int) (*SOP, int, error) {
	if maxTerms <= 0 {
		maxTerms = 200000
	}
	terms, peak := []uint64{0}, 0
	for _, clause := range e.Clauses {
		var opts []uint64
		for _, i := range Bits(clause) {
			opts = append(opts, f(i))
		}
		if opts = minimal(opts); len(opts) > 0 && opts[0] == 0 {
			continue
		}
		var next []uint64
		for _, t := range terms {
			if hasSubsetOf(opts, t) {
				next = append(next, t)
				continue
			}
			for _, o := range opts {
				next = append(next, t|o)
			}
		}
		peak = max(peak, len(next))
		if len(next) > maxTerms {
			return nil, peak, fmt.Errorf("%w: %d intermediate terms", ErrTooLarge, len(next))
		}
		terms = minimal(next)
	}
	return &SOP{N: newN, Terms: terms}, peak, nil
}

// The ξ clause masks of two 63-row wide-chain matrices (frac is the
// deviation-fault size, 61 grid points over the derived region), so the
// benchmarks and counter tests run no simulation.
var (
	xiMultistageLP6 = &Expr{N: 63, Clauses: []uint64{ // frac 0.20
		0x5555555555555555, 0x5555555555555555, 0x5555555555555555,
		0x3333333333333333, 0x3333333333333333, 0x3333333333333333,
		0x0f0f0f0f0f0f0f0f, 0x0f0f0f0f0f0f0f0f, 0x0f0f0f0f0f0f0f0f,
		0x00ff00ff00ff00ff, 0x00ff00ff00ff00ff, 0x00ff00ff00ff00ff,
		0x0000ffff0000ffff, 0x0000ffff0000ffff, 0x0000ffff0000ffff,
		0x00000000ffffffff, 0x00000000ffffffff, 0x00000000ffffffff,
	}}
	xiBiquadCascade2 = &Expr{N: 63, Clauses: []uint64{ // frac 0.25
		0x5555555555555555, 0x4545454545454545, 0x5555555555555555,
		0x5555555555555555, 0x3333333333333333, 0x3333333333333333,
		0x0f0f0f0f0f0f0f0f, 0x0f0f0f0f0f0f0f0f, 0x00ff00ff00ff00ff,
		0x00ff000000ff00ff, 0x00ff00ff00ff00ff, 0x00ff00ff00ff00ff,
		0x0000ffff0000ffff, 0x0000ffff0000ffff, 0x00000000ffffffff,
		0x00000000ffffffff,
	}}
)

func paperXi(t testing.TB) *Expr {
	e, _, err := FromMatrix(paperdata.Fig5Det, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// randomPOS draws a product of sums over up to 64 literals with up to 30
// clauses, mixing empty, single-literal and sparse multi-literal clauses
// so that the expansion stays within a few thousand terms.
func randomPOS(rng *rand.Rand) *Expr {
	n := 1 + rng.Intn(MaxLiterals)
	e := &Expr{N: n}
	for k := rng.Intn(31); k > 0; k-- {
		var c uint64
		switch r := rng.Intn(20); {
		case r == 0: // empty clause: nothing satisfies the expression
		case r < 5:
			c = 1 << uint(rng.Intn(n))
		default:
			for lits := 2 + rng.Intn(4); lits > 0; lits-- {
				c |= 1 << uint(rng.Intn(n))
			}
		}
		e.Clauses = append(e.Clauses, c)
	}
	return e
}

// checkPetrick asserts that PetrickContext returns exactly the reference
// expansion (terms in order, or the same ErrTooLarge) under maxTerms, and
// that on success both trip the budget one term below the peak.
func checkPetrick(t *testing.T, e *Expr, maxTerms int) {
	t.Helper()
	want, peak, wantErr := petrickRef(e, maxTerms)
	got, err := e.Petrick(maxTerms)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s: err = %v, reference %v", e.Format(cname), err, wantErr)
	}
	if err != nil {
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("%s: err = %v, want ErrTooLarge", e.Format(cname), err)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n got %v\nwant %v", e.Format(cname), got.Terms, want.Terms)
	}
	if peak <= 1 {
		return // a budget of peak-1 would mean the default
	}
	if _, err := e.Petrick(peak); err != nil {
		t.Fatalf("%s: budget %d (the peak) rejected: %v", e.Format(cname), peak, err)
	}
	_, _, wantErr = petrickRef(e, peak-1)
	if _, err := e.Petrick(peak - 1); !errors.Is(err, ErrTooLarge) || !errors.Is(wantErr, ErrTooLarge) {
		t.Fatalf("%s: budget %d (below the peak): err = %v, reference %v", e.Format(cname), peak-1, err, wantErr)
	}
}

// randomMap draws a literal map for e into an opamp space of up to 8
// opamps, the way core builds one from a chain: opamp names drawn with
// repeats, each name's bit that of its last chain entry, and each literal
// the union of a random subset of the chain's bits. Some literals map to
// 0, others duplicate an earlier literal's mask.
func randomMap(rng *rand.Rand, e *Expr) (int, []uint64) {
	newN := 1 + rng.Intn(8)
	names := make([]int, newN)
	for i := range names {
		names[i] = rng.Intn(newN)
	}
	bit := make([]uint64, newN)
	for i, name := range names {
		for j := i; j < newN; j++ {
			if names[j] == name {
				bit[i] = 1 << uint(j)
			}
		}
	}
	f := make([]uint64, e.N)
	for i := range f {
		switch r := rng.Intn(10); {
		case r == 0: // no followers: the fault-free row C0
		case r == 1 && i > 0:
			f[i] = f[rng.Intn(i)]
		default:
			for j, b := range bit {
				if rng.Intn(3) == 0 || j == i%newN {
					f[i] |= b
				}
			}
		}
	}
	return newN, f
}

// checkPetrickMapped asserts that PetrickMapped returns the row-space
// expansion mapped through f and absorbed (whenever Petrick fits in
// maxTerms), the clause-by-clause opamp-space expansion's terms or
// ErrTooLarge under maxTerms, and that on success both trip the budget
// one term below the peak.
func checkPetrickMapped(t *testing.T, e *Expr, newN int, f []uint64, maxTerms int) {
	t.Helper()
	fn := func(i int) uint64 { return f[i] }
	want, peak, wantErr := petrickMappedRef(e, newN, fn, maxTerms)
	got, err := e.PetrickMapped(context.Background(), newN, fn, maxTerms)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s under %#x: err = %v, reference %v", e.Format(cname), f, err, wantErr)
	}
	if err != nil {
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("%s under %#x: err = %v, want ErrTooLarge", e.Format(cname), f, err)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s under %#x:\n got %v\nwant %v", e.Format(cname), f, got.Terms, want.Terms)
	}
	if sop, err := e.Petrick(maxTerms); err == nil {
		if rows := mapLiteralsRef(sop, newN, fn); !reflect.DeepEqual(got, rows) {
			t.Fatalf("%s under %#x:\n got %v\nmapped row-space terms %v", e.Format(cname), f, got.Terms, rows.Terms)
		}
	}
	if peak <= 1 {
		return // a budget of peak-1 would mean the default
	}
	if _, err := e.PetrickMapped(context.Background(), newN, fn, peak); err != nil {
		t.Fatalf("%s under %#x: budget %d (the peak) rejected: %v", e.Format(cname), f, peak, err)
	}
	if _, err := e.PetrickMapped(context.Background(), newN, fn, peak-1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("%s under %#x: budget %d (below the peak): err = %v", e.Format(cname), f, peak-1, err)
	}
}

func TestPetrickMatchesReference(t *testing.T) {
	checkPetrick(t, paperXi(t), 0)
	checkPetrick(t, xiMultistageLP6, 0)
	checkPetrick(t, xiBiquadCascade2, 0)
	checkPetrick(t, &Expr{N: 3}, 0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		checkPetrick(t, randomPOS(rng), 5000)
	}
}

// TestPetrickMappedMatchesReference holds the opamp-space expansion to
// the row-space one mapped and absorbed, on the two wide-chain ξ under
// their chains' follower maps — as measured, where row C0 satisfies every
// clause, and with C0 taken out of every clause — and on seeded random
// expressions and maps.
func TestPetrickMappedMatchesReference(t *testing.T) {
	followers := make([]uint64, 63)
	for i := range followers {
		followers[i] = uint64(i) // configuration i: bit b ⇒ opamp b a follower
	}
	for _, e := range []*Expr{xiMultistageLP6, xiBiquadCascade2} {
		checkPetrickMapped(t, e, 6, followers, 0)
		noC0 := &Expr{N: e.N}
		for _, c := range e.Clauses {
			noC0.Clauses = append(noC0.Clauses, c&^1)
		}
		checkPetrickMapped(t, noC0, 6, followers, 0)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		e := randomPOS(rng)
		newN, f := randomMap(rng, e)
		checkPetrickMapped(t, e, newN, f, 5000)
	}
}

// TestPetrickMappedPaperOpamps expands the paper's ξ under Table 3's
// configuration → follower-opamp map: ξ* = OP1·OP2 (§4.3).
func TestPetrickMappedPaperOpamps(t *testing.T) {
	f := make([]uint64, len(paperdata.ConfigLabels))
	for i, label := range paperdata.ConfigLabels {
		for _, op := range paperdata.OpampMapping[label] {
			f[i] |= MaskOf(slices.Index(paperdata.OpampNames, op))
		}
	}
	xiStar, err := paperXi(t).PetrickMapped(context.Background(), len(paperdata.OpampNames), func(i int) uint64 { return f[i] }, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := xiStar.Format(func(i int) string { return paperdata.OpampNames[i] }); got != "OP1·OP2" {
		t.Fatalf("ξ* = %q, want OP1·OP2", got)
	}
	if min := xiStar.Minimal(); len(min) != 1 || min[0] != MaskOf(0, 1) {
		t.Fatalf("minimal ξ* = %v", min)
	}
}

// TestWithRequiredMatchesReference covers both WithRequired paths: the
// disjoint one over ordered terms that skips absorption, and the one that
// re-absorbs because required overlaps a term or the terms are out of
// order.
func TestWithRequiredMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		e := randomPOS(rng)
		sop, err := e.Petrick(5000)
		if err != nil {
			continue
		}
		required := rng.Uint64() & rng.Uint64() & rng.Uint64()
		if i%3 != 0 {
			var used uint64
			for _, t := range sop.Terms {
				used |= t
			}
			required &^= used
		}
		if i%3 == 2 {
			rng.Shuffle(len(sop.Terms), func(a, b int) { sop.Terms[a], sop.Terms[b] = sop.Terms[b], sop.Terms[a] })
		}
		if got, want := sop.WithRequired(required), withRequiredRef(sop, required); !reflect.DeepEqual(got, want) {
			t.Fatalf("WithRequired(%#x) on %v = %v, want %v", required, sop.Terms, got.Terms, want.Terms)
		}
	}
}

// boolexprCounts is a snapshot of the covering-algebra counters the
// benchmark's per-layer boolexpr rows read.
type boolexprCounts struct{ clauses, absorbIn, absorbOut, peak float64 }

// countCover runs f from a zeroed peak gauge and returns the counter
// deltas and the peak it recorded.
func countCover(f func()) boolexprCounts {
	bPetrickPeak.Set(0)
	c0, i0, o0 := bPetrickClauses.Value(), bAbsorbIn.Value(), bAbsorbOut.Value()
	f()
	return boolexprCounts{
		clauses:   float64(bPetrickClauses.Value() - c0),
		absorbIn:  float64(bAbsorbIn.Value() - i0),
		absorbOut: float64(bAbsorbOut.Value() - o0),
		peak:      bPetrickPeak.Value(),
	}
}

// TestPetrickCountersMatchReference pins the instrumentation of the §4.1
// cover (ξ_compl expansion, then the essential rows ORed back in) to what
// clause-by-clause absorption reports, so the per-layer boolexpr figures
// stay comparable across implementations.
func TestPetrickCountersMatchReference(t *testing.T) {
	for name, e := range map[string]*Expr{"paper-xi": paperXi(t), "multistage-lp-6": xiMultistageLP6} {
		ess := e.Essential()
		reduced := e.ReduceBy(ess)
		want := countCover(func() {
			sop, _, err := petrickRef(reduced, 0)
			if err != nil {
				t.Fatal(err)
			}
			withRequiredRef(sop, ess)
		})
		got := countCover(func() {
			sop, err := reduced.Petrick(0)
			if err != nil {
				t.Fatal(err)
			}
			sop.WithRequired(ess)
		})
		if got != want {
			t.Errorf("%s: counters %+v, reference %+v", name, got, want)
		}
		if want.clauses == 0 || want.absorbIn == 0 {
			t.Errorf("%s: reference counted nothing: %+v", name, want)
		}
	}
}

// FuzzPetrick decodes arbitrary bytes into a product of sums — the first
// byte picks the literal count, every following 8 bytes one clause mask —
// and holds PetrickContext to the reference expansion. It also holds
// PetrickMapped to the mapped references under a map drawn from the
// input: the last byte picks the width of the new literal space, and
// literal i maps to the masked byte at a position that steps with i.
func FuzzPetrick(f *testing.F) {
	encode := func(e *Expr) []byte {
		out := []byte{byte(e.N - 1)}
		for _, c := range e.Clauses {
			out = binary.LittleEndian.AppendUint64(out, c)
		}
		return out
	}
	f.Add(encode(paperXi(f)))
	f.Add(encode(xiBiquadCascade2))
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		raw := data
		e := &Expr{N: 1 + int(data[0])%MaxLiterals}
		width := ^uint64(0) >> uint(MaxLiterals-e.N)
		for data = data[1:]; len(data) >= 8 && len(e.Clauses) < 30; data = data[8:] {
			e.Clauses = append(e.Clauses, binary.LittleEndian.Uint64(data)&width)
		}
		checkPetrick(t, e, 1000)
		newN := 1 + int(raw[len(raw)-1])%8
		f := make([]uint64, e.N)
		for i := range f {
			f[i] = uint64(raw[(1+7*i)%len(raw)]) & (1<<uint(newN) - 1)
		}
		checkPetrickMapped(t, e, newN, f, 1000)
	})
}

// BenchmarkPetrick times the §4.1 cover — ξ_compl expanded, essential
// rows ORed back in — on the paper's ξ and on two 63-row wide-chain ξ.
func BenchmarkPetrick(b *testing.B) {
	for _, c := range []struct {
		name string
		expr *Expr
	}{
		{"paper-xi", paperXi(b)},
		{"multistage-lp-6", xiMultistageLP6},
		{"biquad-cascade-2", xiBiquadCascade2},
	} {
		ess := c.expr.Essential()
		reduced := c.expr.ReduceBy(ess)
		b.Run("expr="+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sop, err := reduced.Petrick(0)
				if err != nil {
					b.Fatal(err)
				}
				petrickSink = sop.WithRequired(ess)
			}
		})
	}
}

// petrickSink keeps BenchmarkPetrick's result live.
var petrickSink *SOP
