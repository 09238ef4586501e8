package numeric

import "math"

// WoodburyPivotRatio is the screen on a capacitance matrix: K's LU must
// have its smallest pivot magnitude at least this fraction of its
// largest, or Woodbury.Factor refuses it and the caller factors the
// configuration matrix itself. Below it K is near-singular — the
// configuration matrix is, or its answers would carry K's conditioning
// into every correction — and the rounding those corrections add is no
// longer small against the guard band. The detect package's error
// measurement (TestWoodburyErrorWithinBand) is the evidence for this
// value.
const WoodburyPivotRatio = 1e-6

// Woodbury answers a configuration matrix C = A + Σ_{a∈S} e_{r_a}·w_aᵀ,
// a basis matrix A with the rows r_a of the opamps in S rewritten, from
// reductions of A's solves alone (Woodbury identity):
//
//	C⁻¹x = A⁻¹x − G·K⁻¹·Wᵀ·A⁻¹x,  G = A⁻¹E,  K = I + Wᵀ·G,
//
// where E's columns are e_{r_a} and W's are w_a over a ∈ S. A basis
// point holds, over all nc opamps a, b that could be in S, the full
// reduction M[a·nc+b] = w_aᵀ·g_b and, per right-hand side x, the entries
// and products the caller reads: g_b[k], Wᵀ·A⁻¹x and vᵀ·g_b. Factor
// picks S's block of K; Nominal and IncidenceInto then correct a basis value
// with |S|×|S| solves. A Woodbury is reused across points and rows; its
// zero value is ready. It is not safe for concurrent use.
type Woodbury struct {
	s []int
	// k holds K's LU factors, row-major, with the row swaps in piv and
	// the reciprocals of U's diagonal in inv.
	k, inv []complex128
	piv    []int
	// t is K⁻¹·(Wᵀy)_S of the last Nominal, and yk, my its corrected
	// y[k] and that sum's magnitude; r is Incidence's scratch.
	t, r []complex128
	yk   complex128
	my   float64
}

// Factor forms K = I + M[S,S] from the nc×nc reduction m and factors it
// with partial pivoting. It reports false when K is singular or fails the
// WoodburyPivotRatio screen (pivots compared by |re| + |im|); the
// corrections are then not to be used. An empty s is the basis matrix
// itself: Factor reports true, and Nominal and IncidenceInto return the
// basis values unchanged.
func (w *Woodbury) Factor(m []complex128, nc int, s []int) bool {
	w.s = s
	n := len(s)
	if n == 0 {
		return true
	}
	if len(w.piv) < n {
		slab := make([]complex128, n*n+3*n)
		w.k, w.inv, w.t, w.r = slab[:n*n], slab[n*n:n*n+n], slab[n*n+n:n*n+2*n], slab[n*n+2*n:]
		w.piv = make([]int, n)
	}
	k := w.k[:n*n]
	for i, a := range s {
		row := k[i*n : (i+1)*n]
		for j, b := range s {
			row[j] = m[a*nc+b]
		}
		row[i]++
	}
	lo, hi := math.Inf(1), 0.0
	for c := range n {
		p, best := c, Abs1(k[c*n+c])
		for i := c + 1; i < n; i++ {
			if v := Abs1(k[i*n+c]); v > best {
				p, best = i, v
			}
		}
		if best == 0 {
			return false
		}
		w.piv[c] = p
		if p != c {
			for j := range n {
				k[c*n+j], k[p*n+j] = k[p*n+j], k[c*n+j]
			}
		}
		inv := 1 / k[c*n+c]
		w.inv[c] = inv
		for i := c + 1; i < n; i++ {
			l := k[i*n+c] * inv
			k[i*n+c] = l
			if l == 0 {
				continue
			}
			for j := c + 1; j < n; j++ {
				k[i*n+j] -= l * k[c*n+j]
			}
		}
		lo, hi = min(lo, best), max(hi, best)
	}
	return lo >= WoodburyPivotRatio*hi
}

// solve overwrites x (length |S|) with K⁻¹·x.
func (w *Woodbury) solve(x []complex128) {
	n, k := len(w.s), w.k
	for c := range n {
		if p := w.piv[c]; p != c {
			x[c], x[p] = x[p], x[c]
		}
	}
	for i := 1; i < n; i++ {
		var sum complex128
		for j := range i {
			sum += k[i*n+j] * x[j]
		}
		x[i] -= sum
	}
	for i := n - 1; i >= 0; i-- {
		var sum complex128
		for j := i + 1; j < n; j++ {
			sum += k[i*n+j] * x[j]
		}
		x[i] = (x[i] - sum) * w.inv[i]
	}
}

// Nominal corrects the basis solution's entry yk = (A⁻¹b)[k] to C's:
// with gk[a] = g_a[k] and wy[a] = w_aᵀ·A⁻¹b over all nc opamps, it
// solves t = K⁻¹·wy_S and returns yk − Σ_{a∈S} gk[a]·t_a and the
// magnitude |yk| + Σ|gk[a]·t_a| of that sum. Incidence reads t. With an
// empty S it returns yk and 0.
func (w *Woodbury) Nominal(yk complex128, gk, wy []complex128) (complex128, float64) {
	if len(w.s) == 0 {
		w.yk, w.my = yk, 0
		return yk, 0
	}
	t := w.t[:len(w.s)]
	for i, a := range w.s {
		t[i] = wy[a]
	}
	w.solve(t)
	w.yk, w.my = w.correct(yk, gk, t)
	return w.yk, w.my
}

// IncidenceInto writes into dst, after Nominal, C's incidence from the
// basis incidence's z[k], vᵀy and vᵀz — solved against A — and the
// reductions gk as in Nominal, vg[a] = vᵀ·g_a and wz[a] = w_aᵀ·z over all
// nc opamps: it solves r = K⁻¹·wz_S and forms z[k] − Σ gk·r, vᵀy − Σ vg·t
// and vᵀz − Σ vg·r, recording each sum's magnitude for Rounding. With an
// empty S dst is the basis incidence, bits included.
func (w *Woodbury) IncidenceInto(dst *Incidence, zk, vy, vz complex128, gk, vg, wz []complex128) {
	if len(w.s) == 0 {
		*dst = Incidence{yk: w.yk, zk: zk, vy: vy, vz: vz}
		return
	}
	r, t := w.r[:len(w.s)], w.t[:len(w.s)]
	for i, a := range w.s {
		r[i] = wz[a]
	}
	w.solve(r)
	dst.yk, dst.my = w.yk, w.my
	dst.zk, dst.mz = w.correct(zk, gk, r)
	dst.vy, dst.mvy = w.correct(vy, vg, t)
	dst.vz, dst.mvz = w.correct(vz, vg, r)
}

// correct returns x − Σ_{a∈S} coef[a]·sol_a and |x| + Σ|coef[a]·sol_a|.
func (w *Woodbury) correct(x complex128, coef, sol []complex128) (complex128, float64) {
	var sum complex128
	mag := Abs1(x)
	for i, a := range w.s {
		term := coef[a] * sol[i]
		sum += term
		mag += Abs1(term)
	}
	return x - sum, mag
}
