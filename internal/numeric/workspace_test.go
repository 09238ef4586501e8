package numeric

import (
	"errors"
	"math/rand"
	"testing"
)

// factorSolve factors the workspace's values and solves for its RHS in
// place.
func factorSolve(w *Workspace) error {
	lu, err := w.SparseFactor()
	if err != nil {
		return err
	}
	return lu.SolveInPlace(w.RHS)
}

// TestWorkspaceFactorSolve solves a known 2×2 system through the
// workspace's sparse factor and an in-place solve.
func TestWorkspaceFactorSolve(t *testing.T) {
	w := &Workspace{}
	p := densePattern(t, 2)
	w.EnsureSparse(p)
	// [2 1; 1 3] x = [5; 10] → x = [1; 3]
	w.SVals[p.SlotOf(0, 0)] = 2
	w.SVals[p.SlotOf(0, 1)] = 1
	w.SVals[p.SlotOf(1, 0)] = 1
	w.SVals[p.SlotOf(1, 1)] = 3
	w.RHS[0], w.RHS[1] = 5, 10
	if err := factorSolve(w); err != nil {
		t.Fatal(err)
	}
	if d := w.RHS[0] - 1; real(d)*real(d)+imag(d)*imag(d) > 1e-24 {
		t.Fatalf("x0 = %v, want 1", w.RHS[0])
	}
	if d := w.RHS[1] - 3; real(d)*real(d)+imag(d)*imag(d) > 1e-24 {
		t.Fatalf("x1 = %v, want 3", w.RHS[1])
	}
}

func TestWorkspaceFactorSolveSingular(t *testing.T) {
	w := &Workspace{}
	p := densePattern(t, 2)
	w.EnsureSparse(p)
	// Rank-1 matrix must surface ErrSingular through SparseFactor.
	for i := range w.SVals {
		w.SVals[i] = 1
	}
	w.RHS[0], w.RHS[1] = 1, 2
	if err := factorSolve(w); !errors.Is(err, ErrSingular) {
		t.Fatalf("SparseFactor on singular matrix: err = %v, want ErrSingular", err)
	}
}

// densePattern builds an n×n all-nonzero Pattern — the cheapest way to
// get a pattern of a known size for the resize-contract tests.
func densePattern(t *testing.T, n int) *Pattern {
	t.Helper()
	coords := make([]int64, 0, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			coords = append(coords, PackCoord(i, j))
		}
	}
	p, err := PatternFromCoords(n, coords)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestWorkspaceEnsureSparseSlabContract(t *testing.T) {
	w := &Workspace{}
	p6 := densePattern(t, 6)
	w.EnsureSparse(p6)
	if len(w.RHS) != 6 || len(w.SVals) != p6.NNZ() {
		t.Fatalf("EnsureSparse sized rhs=%d svals=%d, want 6 and %d", len(w.RHS), len(w.SVals), p6.NNZ())
	}
	// RHS and SVals are adjacent carvings of one slab, each capped at its
	// own length so an append on one can never bleed into the other.
	if &w.RHS[0] != &w.sslab[0] || &w.SVals[0] != &w.sslab[6] {
		t.Fatal("RHS/SVals are not carved from the shared slab")
	}
	if cap(w.RHS) != len(w.RHS) || cap(w.SVals) != len(w.SVals) {
		t.Fatalf("segments not capacity-capped: cap(rhs)=%d cap(svals)=%d", cap(w.RHS), cap(w.SVals))
	}
	base := &w.sslab[0]

	// Rebinding the same pattern is a no-op on the storage.
	rhs0, sv0 := &w.RHS[0], &w.SVals[0]
	w.EnsureSparse(p6)
	if &w.RHS[0] != rhs0 || &w.SVals[0] != sv0 {
		t.Fatal("rebinding the same pattern reallocated the slab")
	}

	// Shrinking to a smaller pattern reuses the backing slab; the segments
	// re-carve from its front.
	p3 := densePattern(t, 3)
	w.EnsureSparse(p3)
	if len(w.RHS) != 3 || len(w.SVals) != p3.NNZ() {
		t.Fatalf("shrink sized rhs=%d svals=%d", len(w.RHS), len(w.SVals))
	}
	if &w.RHS[0] != base {
		t.Fatal("shrink reallocated a slab that was large enough")
	}
	if &w.SVals[0] != &w.sslab[3] {
		t.Fatal("shrink did not re-carve SVals at the new RHS boundary")
	}

	// Growing past capacity reallocates to fit the larger pattern.
	p9 := densePattern(t, 9)
	w.EnsureSparse(p9)
	if len(w.RHS) != 9 || len(w.SVals) != p9.NNZ() {
		t.Fatalf("grow sized rhs=%d svals=%d", len(w.RHS), len(w.SVals))
	}
	if cap(w.sslab) < 9+p9.NNZ() {
		t.Fatalf("grow left slab cap %d < %d", cap(w.sslab), 9+p9.NNZ())
	}
}

func TestWorkspaceEnsureSparseNoAliasing(t *testing.T) {
	w := &Workspace{}
	p := densePattern(t, 4)
	w.EnsureSparse(p)
	for i := range w.RHS {
		w.RHS[i] = 7
	}
	for i := range w.SVals {
		w.SVals[i] = 9
	}
	for i, v := range w.RHS {
		if v != 7 {
			t.Fatalf("RHS[%d] = %v after SVals writes, want 7", i, v)
		}
	}
	for i, v := range w.SVals {
		if v != 9 {
			t.Fatalf("SVals[%d] = %v, want 9", i, v)
		}
	}
}

// TestWorkspaceSparseFactorSolveAllocFree pins the warmup contract of
// the sparse path: once EnsureSparse has bound the pattern, the whole
// refill + factor + solve cycle allocates nothing.
func TestWorkspaceSparseFactorSolveAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randSparse(rng, 12, 0.3)
	p, vals := patternOf(t, m)
	rhs := make([]complex128, 12)
	for i := range rhs {
		rhs[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	w := &Workspace{}
	w.EnsureSparse(p)
	cycle := func() {
		w.EnsureSparse(p)
		copy(w.SVals, vals)
		copy(w.RHS, rhs)
		if err := factorSolve(w); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warmup: first Factor sizes the symbolic fallback buffers
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("sparse factor+solve allocates %.1f/op after warmup, want 0", avg)
	}
}
