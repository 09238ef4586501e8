package numeric

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchOrders are the system orders of the numeric benchmark rung:
// the library benches sit at 6–23 unknowns, the larger orders show how
// factor and solve scale past them.
var benchOrders = []int{8, 16, 32, 64, 128}

// chainBand builds a deterministic n×n system shaped like the MNA of an
// opamp chain: node rows couple to their neighbours one and two
// positions away (conductances plus a capacitive imaginary part), and
// every fourth unknown is an ideal opamp's output current, whose row
// ties the previous node to virtual ground (a zero diagonal, so
// pivoting swaps rows) and whose column feeds the next node.
func chainBand(tb testing.TB, n int) (*Pattern, []complex128) {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	m := NewMatrix(n, n)
	opamp := func(i int) bool { return i%4 == 3 }
	for i := 0; i < n; i++ {
		if opamp(i) {
			continue
		}
		var sum float64
		for _, d := range []int{-2, -1, 1, 2} {
			j := i + d
			if j < 0 || j >= n || opamp(j) {
				continue
			}
			g := 1e-4 * (1 + rng.Float64())
			m.Set(i, j, complex(-g, -1e-5*rng.Float64()))
			sum += g
		}
		m.Set(i, i, complex(sum+1e-4*rng.Float64(), 1e-5*(1+rng.Float64())))
	}
	for i := 3; i < n; i += 4 {
		m.Set(i, i-1, 1)
		if i+1 < n {
			m.Set(i+1, i, 1)
		} else {
			m.Set(i-2, i, 1)
		}
	}
	p, vals := patternOf(tb, m)
	return p, vals
}

// benchSink keeps the measured calls observable to the compiler.
var benchSink complex128

// BenchmarkSparseLU times the sparse factorization and one solve with
// that factor, per order.
func BenchmarkSparseLU(b *testing.B) {
	for _, n := range benchOrders {
		p, vals := chainBand(b, n)
		rhs := make([]complex128, n)
		for i := range rhs {
			rhs[i] = complex(float64(i%3), 1)
		}
		b.Run(fmt.Sprintf("n=%d/op=factor", n), func(b *testing.B) {
			s := NewSparseScratch(p)
			if _, err := s.Factor(vals); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := s.Factor(vals)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = f.diag[0]
			}
		})
		b.Run(fmt.Sprintf("n=%d/op=solve", n), func(b *testing.B) {
			f, err := NewSparseScratch(p).Factor(vals)
			if err != nil {
				b.Fatal(err)
			}
			x := make([]complex128, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(x, rhs)
				if err := f.SolveInPlace(x); err != nil {
					b.Fatal(err)
				}
			}
			benchSink = x[0]
		})
	}
}

// BenchmarkSolveRankOneSparse times one Sherman–Morrison solve of a
// two-terminal element change (a resistor between nodes 0 and 1)
// against a nominal factor, per order.
func BenchmarkSolveRankOneSparse(b *testing.B) {
	for _, n := range benchOrders {
		p, vals := chainBand(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f, err := NewSparseScratch(p).Factor(vals)
			if err != nil {
				b.Fatal(err)
			}
			y := make([]complex128, n)
			y[0] = 1
			if err := f.SolveInPlace(y); err != nil {
				b.Fatal(err)
			}
			ls, err := NewLowRankSolver(f, y)
			if err != nil {
				b.Fatal(err)
			}
			idx, val := []int{0, 1}, []complex128{1, -1}
			x := make([]complex128, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ls.SolveRankOneSparse(1e-5, idx, val, idx, val, x); err != nil {
					b.Fatal(err)
				}
			}
			benchSink = x[0]
		})
	}
}
