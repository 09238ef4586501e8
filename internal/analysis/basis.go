package analysis

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"analogdft/internal/circuit"
	"analogdft/internal/fault"
	"analogdft/internal/mna"
	"analogdft/internal/numeric"
)

// Basis is what every configuration row of a matrix reads at each grid
// point instead of factoring its own matrix. Follower mode rewrites one
// constraint row per chain opamp, so configuration S is
// C_S = A₀ + Σ_{a∈S} e_{r_a}·w_aᵀ, A₀ the basis circuit's matrix (the
// functional configuration) and w_a = follower row − normal row
// (mna.System.FollowerDeltaInto). Per point the basis factors A₀ once and
// keeps only what the rows read: y₀ = A₀⁻¹b and g_a = A₀⁻¹e_{r_a} at the
// observed entry k, the reductions w_aᵀy₀ and M[a][b] = w_aᵀg_b, and
// for every distinct fault incidence (u, v) its incidence against A₀ and
// the reductions vᵀg_a and w_aᵀz₀ (z₀ = A₀⁻¹u). A row then answers its
// nominal and its incidences through a |S|×|S| Woodbury correction
// (numeric.Woodbury). No factor outlives its point.
//
// NewBasis lowers the faults and sizes the basis; Fill computes it, one
// ω chunk per call, and chunks may fill in parallel. A filled basis is
// read-only and shared by every row.
type Basis struct {
	ckt   *circuit.Circuit
	chain []string
	grid  []float64
	// eng lowered the faults; it fills chunk 0, with the solver ls, and is
	// then handed to the row whose matrix is A₀ (TakeEngine).
	eng atomic.Pointer[Engine]
	ls  numeric.LowRankSolver
	k   int

	lfs   []lowRankFault
	slot  []int
	leads []int // lfs index of each incidence's first fault
	brs   []int // r_a, the constraint row of chain opamp a
	// at lists the indices solves are read at besides k: at[:atEnd[0]]
	// those of a g_a solve — each v's and each w's — and
	// at[atEnd[q]:atEnd[q+1]] those of incidence q — its v's and each
	// w's.
	at, atEnd []int

	nc, ni int
	// red holds point i's values at red[i*stride:]: 1 where A₀ factored
	// there (0 where it is singular), y₀[k], then g_a[k], w_aᵀy₀ and M
	// (point), then per incidence z₀[k], vᵀy₀, vᵀz₀, vᵀg_a and w_aᵀz₀
	// (incidence).
	red    []complex128
	stride int
}

// NewBasis prepares the basis of ckt over grid for the configurable
// opamps named in chain (those a row may put in follower mode, in chain
// order; none for a basis that is a row's own matrix) and the rank-1
// faults of faults: it builds one engine, lowers every fault that is
// rank-1 once (prepareLowRank; a fault is rank-1 or not whatever the
// opamp modes) and groups them by incidence.
func NewBasis(ckt *circuit.Circuit, chain []string, grid []float64, faults fault.List) (*Basis, error) {
	if len(grid) == 0 {
		return nil, fmt.Errorf("%w: empty grid", ErrBadSweep)
	}
	e, err := NewEngine(ckt)
	if err != nil {
		return nil, err
	}
	// Fill's chunks share e's system, so its stamps are built here, once.
	if _, err := e.sys.Pattern(); err != nil {
		return nil, err
	}
	nf, nc := len(faults), len(chain)
	b := &Basis{ckt: ckt, chain: chain, grid: grid, k: max(e.nodeIdx, 0), nc: nc, lfs: make([]lowRankFault, nf)}
	b.eng.Store(e)
	// One slab for every index list: the slots, the leads, the rows, the
	// w indices (at most five per opamp), the read sets' ends, and the
	// read sets, each at most two v entries and the w indices.
	ws := 5 * nc
	rest := make([]int, 0, 3*nf+nc+ws+1+2*nf+ws+nf*(2+ws))
	carve := func(n int) []int {
		s := rest[len(rest) : len(rest)+n : len(rest)+n]
		rest = rest[:len(rest)+n]
		return s
	}
	b.slot = carve(nf)
	n := 0
	for j, f := range faults {
		b.slot[j] = -1
		if e.prepareLowRank(f, &b.lfs[n]) == nil {
			b.slot[j] = n
			n++
		}
	}
	b.lfs = b.lfs[:n]
	b.ni = groupIncidences(b.lfs)
	b.leads = carve(b.ni)[:0]
	for j := range b.lfs {
		if b.lfs[j].lead == j {
			b.leads = append(b.leads, j)
		}
	}
	b.brs = carve(nc)
	w := carve(ws)[:0]
	wd := make([]mna.RowDelta, nc)
	for a, name := range chain {
		if err := e.sys.FollowerDeltaInto(name, grid[0], &wd[a]); err != nil {
			return nil, err
		}
		b.brs[a] = wd[a].Row
		w = append(w, wd[a].Idx...)
	}
	// The read sets, back to back in the rest of the slab: w's indices
	// with the given v's, sorted and distinct.
	b.atEnd = carve(b.ni + 1)
	b.at = rest[len(rest):]
	readSet := func(leads []int) int {
		from := len(b.at)
		b.at = append(b.at, w...)
		for _, l := range leads {
			b.at = append(b.at, b.lfs[l].delta.VIdx...)
		}
		seg := b.at[from:]
		slices.Sort(seg)
		b.at = b.at[:from+len(slices.Compact(seg))]
		return len(b.at)
	}
	b.atEnd[0] = readSet(b.leads)
	for q := range b.ni {
		b.atEnd[q+1] = readSet(b.leads[q : q+1])
	}
	b.stride = 2 + 2*nc + nc*nc + b.ni*(3+2*nc)
	b.red = make([]complex128, len(grid)*b.stride)
	return b, nil
}

// groupIncidences sets every fault's lead — the first fault of lfs with
// the same incidence (u, v) — and incidence number q, in place, and
// returns the number of incidences.
func groupIncidences(lfs []lowRankFault) int {
	ni := 0
	for j := range lfs {
		lf := &lfs[j]
		lf.lead = j
		for l := range j {
			if lfs[l].lead == l && sameIncidence(&lfs[l].delta, &lf.delta) {
				lf.lead, lf.q = l, lfs[l].q
				break
			}
		}
		if lf.lead == j {
			lf.q = ni
			ni++
		}
	}
	return ni
}

// Slots returns, per fault of the list the basis was built for, its
// index among the basis's rank-1 faults (LowRankRow.Faulty), or -1 when
// it is not rank-1. The slice is the basis's own: read it, do not modify
// it.
func (b *Basis) Slots() []int { return b.slot }

// TakeEngine hands the basis's own engine, nominal and built on the basis
// circuit, to its first caller after Fill, and nil to every later one:
// the row whose matrix is A₀ runs its tail on it instead of building
// another.
func (b *Basis) TakeEngine() *Engine { return b.eng.Swap(nil) }

// Fill computes chunk c of chunks: the grid points from c·n/chunks up to
// (c+1)·n/chunks. Chunk 0 runs on the basis's engine, every other on a
// sweeper of its own over the same system, so distinct chunks may fill
// concurrently. A point where A₀ is singular stays unanswered (a row
// with followers solves its own nominal there). ctx is checked once per
// point.
func (b *Basis) Fill(ctx context.Context, c, chunks int) error {
	np := len(b.grid)
	lo, hi := c*np/chunks, (c+1)*np/chunks
	// Every chunk assembles the basis engine's system, whose stamps
	// NewBasis built; chunks past the first bring their own sweeper and
	// solver.
	e := b.eng.Load()
	sw, ls := e.sw, &b.ls
	if c > 0 {
		var err error
		if sw, err = e.sys.NewSweeper(circuit.CanonicalNode(e.driven.Output)); err != nil {
			return err
		}
		ls = &numeric.LowRankSolver{}
	}
	defer sw.FlushMetrics()
	wd := make([]mna.RowDelta, b.nc)
	var incidences int64
	defer func() { eLowRankIncidences.Add(incidences) }()
	k := b.k
	for i := lo; i < hi; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		f := b.grid[i]
		lu, y, err := sw.FactorAt(f)
		if err != nil {
			if errors.Is(err, numeric.ErrSingular) {
				continue
			}
			return err
		}
		if err := ls.Reset(lu, y); err != nil {
			return err
		}
		_, gk, wy, m := b.point(i)
		for a, name := range b.chain {
			if err := e.sys.FollowerDeltaInto(name, f, &wd[a]); err != nil {
				return err
			}
			wy[a] = numeric.DotSparse(wd[a].Idx, wd[a].Val, y)
		}
		for a := range b.chain {
			if _, err := ls.SolveIncidenceAt(b.brs[a:a+1], unit, nil, nil, k, b.at[:b.atEnd[0]]); err != nil {
				return err
			}
			z := ls.Z()
			gk[a] = z[k]
			for r := range b.chain {
				m[r*b.nc+a] = numeric.DotSparse(wd[r].Idx, wd[r].Val, z)
			}
			for q, l := range b.leads {
				d := &b.lfs[l].delta
				_, vg, _ := b.incidence(i, q)
				vg[a] = numeric.DotSparse(d.VIdx, d.VVal, z)
			}
		}
		for q, l := range b.leads {
			d := &b.lfs[l].delta
			incidences++
			inc, err := ls.SolveIncidenceAt(d.UIdx, d.UVal, d.VIdx, d.VVal, k, b.at[b.atEnd[q]:b.atEnd[q+1]])
			if err != nil {
				return err
			}
			parts, _, wz := b.incidence(i, q)
			_, parts[0], parts[1], parts[2] = inc.Parts()
			z := ls.Z()
			for a := range b.chain {
				wz[a] = numeric.DotSparse(wd[a].Idx, wd[a].Val, z)
			}
		}
		b.red[i*b.stride], b.red[i*b.stride+1] = 1, y[k]
	}
	return nil
}

// unit is the one entry of e_r.
var unit = []complex128{1}

// ok reports whether A₀ factored at point i.
func (b *Basis) ok(i int) bool { return b.red[i*b.stride] == 1 }

// point returns point i's y₀[k] and reductions: g_a[k], w_aᵀy₀ and M,
// row-major M[r·nc+a] = w_rᵀg_a.
func (b *Basis) point(i int) (y0k complex128, gk, wy, m []complex128) {
	p, nc := b.red[i*b.stride+1:(i+1)*b.stride], b.nc
	return p[0], p[1 : 1+nc : 1+nc], p[1+nc : 1+2*nc : 1+2*nc], p[1+2*nc : 1+2*nc+nc*nc : 1+2*nc+nc*nc]
}

// incidence returns incidence q's values at point i: z₀[k], vᵀy₀ and
// vᵀz₀ (parts), vᵀg_a and w_aᵀz₀.
func (b *Basis) incidence(i, q int) (parts, vg, wz []complex128) {
	nc := b.nc
	p := b.red[i*b.stride+2+2*nc+nc*nc+q*(3+2*nc):]
	return p[:3:3], p[3 : 3+nc : 3+nc], p[3+nc : 3+2*nc : 3+2*nc]
}
