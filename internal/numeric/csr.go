package numeric

import (
	"fmt"
	"slices"
)

// Pattern is the shared symbolic structure of a sparse complex matrix:
// the CSR row layout plus a precomputed CSC (column) view of the same
// nonzero set. It is built once per system — the MNA stamp structure is
// fixed across the frequency grid and across fault patches — and then
// shared read-only by every value array that uses the layout (the G
// cache, the C cache, and each workspace's assembled M = G + jω·C), so
// the symbolic side of assembly, patching and factorization is never
// recomputed per point.
//
// The CSC view (ColPtr/RowInd/CSlot) is the precomputed symbolic phase
// of the left-looking sparse LU: the factorization walks columns, and
// CSlot maps each column-order entry back to its CSR value slot so a
// column scatter never searches.
//
// All index arrays live in one backing slab, so a Pattern costs a single
// allocation beyond the builder's coordinate buffer.
type Pattern struct {
	N      int
	RowPtr []int32 // length N+1
	ColIdx []int32 // length NNZ, sorted ascending within each row
	ColPtr []int32 // length N+1
	RowInd []int32 // length NNZ, sorted ascending within each column
	CSlot  []int32 // CSR slot of each CSC entry
}

// PackCoord packs a matrix coordinate for PatternFromCoords. Coordinates
// are collected as packed int64s so a stamp walk can record its touched
// entries into a single flat buffer.
func PackCoord(i, j int) int64 { return int64(i)<<32 | int64(j) }

// PatternFromCoords builds the shared symbolic pattern of an n×n matrix
// from a list of packed (row, col) coordinates. Duplicates are allowed
// (stamps touch the same entry repeatedly) and are deduplicated; coords
// is sorted in place and not retained.
func PatternFromCoords(n int, coords []int64) (*Pattern, error) {
	p := &Pattern{}
	if err := p.InitFromCoords(n, coords); err != nil {
		return nil, err
	}
	return p, nil
}

// InitFromCoords is PatternFromCoords into a caller-owned struct, so a
// holder that embeds the Pattern (mna.System does) pays for the index
// slab but not for a separate struct allocation. Any previous state of p
// is discarded.
func (p *Pattern) InitFromCoords(n int, coords []int64) error {
	slices.Sort(coords)
	coords = slices.Compact(coords)
	nnz := len(coords)
	for _, c := range coords {
		i, j := int(c>>32), int(c&0xffffffff)
		if i < 0 || i >= n || j < 0 || j >= n {
			return fmt.Errorf("%w: pattern coordinate (%d,%d) outside %dx%d", ErrShape, i, j, n, n)
		}
	}
	// One slab for every index array plus the CSC fill cursor, which only
	// lives for the duration of this build and borrows the slab's tail.
	slab := make([]int32, 2*(n+1)+3*nnz+n)
	*p = Pattern{
		N:      n,
		RowPtr: slab[: n+1 : n+1],
		ColIdx: slab[n+1 : n+1+nnz : n+1+nnz],
		ColPtr: slab[n+1+nnz : 2*(n+1)+nnz : 2*(n+1)+nnz],
		RowInd: slab[2*(n+1)+nnz : 2*(n+1)+2*nnz : 2*(n+1)+2*nnz],
		CSlot:  slab[2*(n+1)+2*nnz : 2*(n+1)+3*nnz : 2*(n+1)+3*nnz],
	}
	cur := slab[2*(n+1)+3*nnz:]
	// Coordinates are sorted by (row, col), which is exactly CSR order.
	for s, c := range coords {
		i, j := int32(c>>32), int32(c&0xffffffff)
		p.RowPtr[i+1]++
		p.ColIdx[s] = j
		p.ColPtr[j+1]++
	}
	for i := 0; i < n; i++ {
		p.RowPtr[i+1] += p.RowPtr[i]
		p.ColPtr[i+1] += p.ColPtr[i]
	}
	// Fill the CSC view: walking CSR rows in order appends to each column
	// in ascending row order.
	copy(cur, p.ColPtr[:n])
	for i := 0; i < n; i++ {
		for s := p.RowPtr[i]; s < p.RowPtr[i+1]; s++ {
			j := p.ColIdx[s]
			t := cur[j]
			p.RowInd[t] = int32(i)
			p.CSlot[t] = s
			cur[j] = t + 1
		}
	}
	return nil
}

// NNZ returns the number of stored entries.
func (p *Pattern) NNZ() int { return len(p.ColIdx) }

// SlotOf returns the value-array slot of entry (i, j), or −1 when the
// entry is not part of the pattern. This is the component→nonzero-slot
// index used to lower stamp patches to direct value writes: column
// indices are sorted within each row, so the lookup is a binary search
// over the (typically tiny) row.
func (p *Pattern) SlotOf(i, j int) int {
	lo, hi := int(p.RowPtr[i]), int(p.RowPtr[i+1])
	jj := int32(j)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.ColIdx[mid] < jj {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int(p.RowPtr[i+1]) && p.ColIdx[lo] == jj {
		return lo
	}
	return -1
}

// ScatterInto expands CSR values into a dense matrix, zeroing it first.
// Entries outside the pattern are exact +0, matching what the dense
// stamp caches hold there, so a scatter of sparse-assembled values is
// bit-identical to a dense assembly of the same system.
func (p *Pattern) ScatterInto(m *Matrix, vals []complex128) error {
	if m.Rows != p.N || m.Cols != p.N || len(vals) != p.NNZ() {
		return fmt.Errorf("%w: scatter %d nnz into %dx%d (pattern %d, nnz %d)",
			ErrShape, len(vals), m.Rows, m.Cols, p.N, p.NNZ())
	}
	m.Zero()
	for i := 0; i < p.N; i++ {
		row := m.Row(i)
		for s := p.RowPtr[i]; s < p.RowPtr[i+1]; s++ {
			row[p.ColIdx[s]] = vals[s]
		}
	}
	return nil
}

// CSRValues couples a shared Pattern with one value array, exposing the
// same Add surface as *Matrix so the stamp walks (component stamps,
// per-point opamp rows) write CSR values or a dense reference through
// one interface. Adds outside the pattern panic: the pattern was collected
// from the same walk, so a miss is a programming error, not a data
// error.
type CSRValues struct {
	P    *Pattern
	Vals []complex128
}

// Add accumulates v into entry (i, j) via the slot index.
func (c CSRValues) Add(i, j int, v complex128) {
	s := c.P.SlotOf(i, j)
	if s < 0 {
		panic(fmt.Sprintf("numeric: CSR add outside pattern at (%d,%d)", i, j))
	}
	c.Vals[s] += v
}

// DotSparse accumulates Σ val[k]·dense[idx[k]] over the stored entries,
// skipping explicit zeros — the sparse dot kernel of the Sherman–Morrison
// update. With at most two stored entries (the incidence vectors MNA
// rank-1 patches produce) the result is bit-identical to the dense
// skip-zero loop regardless of index order; larger operands should keep
// idx ascending to preserve that equivalence.
func DotSparse(idx []int, val, dense []complex128) complex128 {
	var acc complex128
	for k, i := range idx {
		if v := val[k]; v != 0 {
			acc += v * dense[i]
		}
	}
	return acc
}

// ScatterSparse writes the stored entries into a zeroed dense vector —
// the sparse scatter (axpy with an implicit zero target) used to expand
// a rank-1 factor for a triangular solve. An index's first entry is
// assigned, so a vector without repeats keeps its bits, signed zeros
// included; a repeated index adds (a self-loop's u = e_a − e_a scatters
// as zero).
func ScatterSparse(idx []int, val, dense []complex128) {
	clear(dense)
	for k, i := range idx {
		if slices.Contains(idx[:k], i) {
			dense[i] += val[k]
		} else {
			dense[i] = val[k]
		}
	}
}
