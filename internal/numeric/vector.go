package numeric

import (
	"fmt"
	"math"
)

// LogSpace returns n logarithmically spaced values from lo to hi inclusive.
// lo and hi must be positive and n >= 2 (n == 1 returns just lo).
func LogSpace(lo, hi float64, n int) []float64 {
	if lo <= 0 || hi <= 0 {
		panic(fmt.Sprintf("numeric: LogSpace requires positive bounds, got [%g, %g]", lo, hi))
	}
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	llo, lhi := math.Log10(lo), math.Log10(hi)
	step := (lhi - llo) / float64(n-1)
	for i := range out {
		out[i] = math.Pow(10, llo+float64(i)*step)
	}
	// Pin the endpoints exactly to avoid drift at the boundaries.
	out[0], out[n-1] = lo, hi
	return out
}

// LinSpace returns n linearly spaced values from lo to hi inclusive.
func LinSpace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}

// Decades returns the number of decades spanned by [lo, hi].
func Decades(lo, hi float64) float64 {
	if lo <= 0 || hi <= 0 {
		panic(fmt.Sprintf("numeric: Decades requires positive bounds, got [%g, %g]", lo, hi))
	}
	return math.Log10(hi / lo)
}

// Db converts a magnitude ratio to decibels (20·log10). Zero maps to -Inf.
func Db(mag float64) float64 {
	if mag <= 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(mag)
}
