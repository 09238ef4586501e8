package main

import (
	"math"
	"sort"
)

// tailCandidates are the quantiles a tail latency may be reported at,
// highest first.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// minBeyond is how many samples must lie beyond a reported tail quantile.
const minBeyond = 10

// beyond returns how many of n samples lie above the q-quantile.
func beyond(n int, q float64) int {
	return int(math.Floor(float64(n)*(1-q) + 1e-9))
}

// tailQuantile picks the quantile to report as the tail of n samples: the
// highest candidate not above want that leaves at least minBeyond samples
// beyond it. The median is the floor, however few samples there are.
func tailQuantile(n int, want float64) float64 {
	for _, q := range tailCandidates {
		if q <= want && beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0.5
}

// quantile returns the q-quantile of sorted values by linear
// interpolation between closest ranks. NaN when empty.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns values sorted ascending without touching the input.
func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// median is the 0.5-quantile of values.
func median(values []float64) float64 { return quantile(sortedCopy(values), 0.5) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method), so spreads printed here match the ones checked against the
// bounds in BENCHMARK.json. It needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	d := sortedCopy(values)
	ld := len(d)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}
