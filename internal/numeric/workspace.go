package numeric

// Workspace bundles the scratch buffers of an in-place sparse
// factor/solve — CSR values, right-hand side and the sparse LU scratch —
// so sweep loops can hand one set of buffers down the stack instead of
// allocating them per call. A Workspace is not safe for concurrent use;
// give each worker its own. The zero value is ready: EnsureSparse sizes
// it for a pattern.
type Workspace struct {
	// RHS is the right-hand side, overwritten by the solution. SVals
	// holds the assembled M = G + jω·C values under the bound pattern.
	// Both are carved from one slab so a warmup costs a single
	// value-buffer allocation; scratch is the reusable factorization
	// state.
	RHS     []complex128
	SVals   []complex128
	sslab   []complex128
	scratch SparseScratch
}

// EnsureSparse makes the buffers fit a sparse system under the given
// pattern, reallocating only when the current ones are too small:
// shrinking to a smaller pattern reuses the backing storage. The buffers
// are NOT zeroed — every sparse assembly overwrites all pattern slots
// (the fused scale-add walks the whole value array) and the whole RHS.
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
