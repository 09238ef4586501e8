package numeric

// Workspace bundles the scratch buffers of an in-place factor/solve —
// matrix storage, right-hand side and pivot permutation — so sweep loops
// can hand one set of buffers down the stack instead of allocating them
// per call. A Workspace is not safe for concurrent use; give each worker
// its own.
type Workspace struct {
	M     *Matrix
	RHS   []complex128
	Pivot []int

	// CSR buffers, populated by EnsureSparse: SVals holds the assembled
	// M = G + jω·C values under the bound pattern, and scratch is the
	// reusable factorization state. A workspace serves one side at a
	// time; the dense buffers above stay untouched (and unallocated)
	// while a sweep runs sparse, and vice versa — only RHS is shared.
	// RHS and SVals are carved from one slab so a sparse warmup costs a
	// single value-buffer allocation.
	SVals   []complex128
	sslab   []complex128
	scratch SparseScratch
}

// NewWorkspace allocates buffers for an n-unknown system.
func NewWorkspace(n int) *Workspace {
	w := &Workspace{}
	w.Ensure(n)
	return w
}

// Ensure makes the buffers fit an n-unknown system, reallocating only
// when the current ones are too small (shrinking reuses the backing
// storage).
//
// The buffers are NOT zeroed: after any Ensure — and in particular after
// a shrink, where every retained element is stale data from the larger
// system — the caller must fully re-stamp M and RHS before factoring.
// Every dense assembly in this repo (the MNA tests' dense reference is a
// full scale-add plus a full rhs copy) overwrites all n×n matrix entries
// and all n RHS entries, which is what makes the non-zeroing reuse safe.
func (w *Workspace) Ensure(n int) {
	if w.M == nil || cap(w.M.Data) < n*n {
		w.M = NewMatrix(n, n)
	} else {
		w.M.Rows, w.M.Cols = n, n
		w.M.Data = w.M.Data[:n*n]
	}
	if cap(w.RHS) < n {
		w.RHS = make([]complex128, n)
	} else {
		w.RHS = w.RHS[:n]
	}
	if cap(w.Pivot) < n {
		w.Pivot = make([]int, n)
	} else {
		w.Pivot = w.Pivot[:n]
	}
}

// FactorSolve assembles nothing itself: it factors w.M in place using
// w.Pivot and solves for w.RHS, leaving the solution in w.RHS. It is the
// one-call form of the FactorInPlace + SolveInPlace pair for callers that
// have already stamped M and RHS.
//
// The workspace owns its buffers, so a pivot slice whose length drifted
// from M.Rows (a caller resized M by hand instead of through Ensure) is
// repaired here — resliced within capacity or reallocated — rather than
// surfaced as FactorInPlace's ErrShape.
func (w *Workspace) FactorSolve() error {
	if n := w.M.Rows; len(w.Pivot) != n {
		if cap(w.Pivot) >= n {
			w.Pivot = w.Pivot[:n]
		} else {
			w.Pivot = make([]int, n)
		}
	}
	lu, err := FactorInPlace(w.M, w.Pivot)
	if err != nil {
		return err
	}
	return lu.SolveInPlace(w.RHS)
}

// EnsureSparse makes the buffers fit a sparse system under the given
// pattern, following the same grow-only, non-zeroing reuse contract as
// Ensure: SVals is NOT cleared here — every sparse assembly overwrites
// all pattern slots (the fused scale-add walks the whole value array) —
// and shrinking to a smaller pattern reuses the backing storage.
func (w *Workspace) EnsureSparse(p *Pattern) {
	n, nnz := p.N, p.NNZ()
	if cap(w.sslab) < n+nnz {
		w.sslab = make([]complex128, n+nnz)
	}
	w.RHS = w.sslab[0:n:n]
	w.SVals = w.sslab[n : n+nnz : n+nnz]
	w.scratch.Bind(p)
}

// BoundTo reports whether the last EnsureSparse bound the workspace to p,
// so a caller that owns the binding can skip re-slicing per solve.
func (w *Workspace) BoundTo(p *Pattern) bool { return w.scratch.pat == p }

// SparseFactor factors SVals under the pattern bound by EnsureSparse.
// The factor aliases the workspace scratch and is valid until the next
// SparseFactor call.
func (w *Workspace) SparseFactor() (*SparseLU, error) {
	return w.scratch.Factor(w.SVals)
}

// SparseFactorSolve is FactorSolve's sparse twin: it factors SVals and
// solves for w.RHS in place, allocation-free after warmup, with results
// bit-identical to assembling the same values dense and calling
// FactorSolve.
func (w *Workspace) SparseFactorSolve() error {
	lu, err := w.scratch.Factor(w.SVals)
	if err != nil {
		return err
	}
	return lu.SolveInPlace(w.RHS)
}
