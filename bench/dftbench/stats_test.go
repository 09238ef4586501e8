package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 25}, {1, 40}, {1.0 / 3, 20}, {0.75, 32.5},
	} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, tail float64
	}{
		{1000, 0.99, 0.99},   // exactly 10 beyond p99
		{999, 0.99, 0.95},    // 9 beyond p99: fall back
		{100000, 0.99, 0.99}, // never above the workload's quantile
		{100, 0.95, 0.9},
		{80, 0.9, 0.75},
		{39, 0.75, 0.5},
		{5, 0.99, 0.5}, // the median is the floor
	} {
		if got := tailQuantile(c.n, c.want); got != c.tail {
			t.Errorf("tailQuantile(%d, %v) = %v, want %v", c.n, c.want, got, c.tail)
		}
	}
	if beyond(1000, 0.99) != 10 || beyond(200, 0.95) != 10 {
		t.Errorf("beyond: got %d and %d, want 10 and 10", beyond(1000, 0.99), beyond(200, 0.95))
	}
}

// Values from Python: statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{7, 3}, 2, 8}, // extrapolates past the ends, as Python does
	} {
		q1, q3 := quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.data, q1, q3, c.q1, c.q3)
		}
	}
}
