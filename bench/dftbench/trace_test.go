package main

import (
	"math"
	"testing"
)

func TestCoveredUnion(t *testing.T) {
	for _, c := range []struct {
		iv     [][2]float64
		lo, hi float64
		want   float64
	}{
		{nil, 0, 10, 0},
		{[][2]float64{{1, 3}, {2, 5}, {7, 8}}, 0, 10, 5},
		{[][2]float64{{-5, 2}, {9, 20}}, 0, 10, 3}, // clipped to [lo, hi]
		{[][2]float64{{4, 6}, {1, 9}}, 0, 10, 8},   // nested
		{[][2]float64{{1, 2}, {2, 3}}, 0, 10, 2},   // touching
	} {
		if got := covered(c.iv, c.lo, c.hi); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("covered(%v) = %v, want %v", c.iv, got, c.want)
		}
	}
}

func TestSpanLogSelfTimeAndCoverage(t *testing.T) {
	// op [0,10] with children a [0,4] and b [5,9]; a has child c [1,2].
	roots := []*spanNode{{Name: "op", StartMs: 0, DurMs: 10, Children: []*spanNode{
		{Name: "a", StartMs: 0, DurMs: 4, Children: []*spanNode{{Name: "c", StartMs: 1, DurMs: 1}}},
		{Name: "b", StartMs: 5, DurMs: 4},
	}}, {Name: "probe", StartMs: 11, DurMs: 2}}
	recs := flattenSpans("t", roots, 100)
	if len(recs) != 5 || recs[0].Parent != -1 || recs[2].Parent != 1 || recs[3].Parent != 0 || recs[4].Parent != -1 || recs[1].Start != 100 {
		t.Fatalf("flattened %+v", recs)
	}
	l := newSpanLog("op")
	l.add(recs, 12)
	for name, want := range map[string][2]float64{ // total, self
		"op": {10, 2}, "a": {4, 3}, "b": {4, 4}, "c": {1, 1}, "probe": {2, 2},
	} {
		a := l.totals[name]
		if a == nil || math.Abs(a.TotalMs-want[0]) > 1e-9 || math.Abs(a.SelfMs-want[1]) > 1e-9 {
			t.Errorf("%s: %+v, want total %v self %v", name, a, want[0], want[1])
		}
	}
	if l.traces != 1 || l.wallMs != 12 || math.Abs(l.coveredMs-8) > 1e-9 {
		t.Errorf("log %d traces, wall %v, covered %v; want 1, 12, 8", l.traces, l.wallMs, l.coveredMs)
	}
	m := newSpanLog("op")
	m.merge(l)
	m.merge(l)
	if m.traces != 2 || m.totals["a"].SelfMs != 6 || len(m.spans) != 10 {
		t.Errorf("merged log: %d traces, a.self %v, %d spans", m.traces, m.totals["a"].SelfMs, len(m.spans))
	}
}
