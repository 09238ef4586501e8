package main

import (
	"math"
	"testing"
	"time"
)

func TestSpeedScaling(t *testing.T) {
	sp := speed{Setup: 2, Window: 1.25}
	for _, c := range []struct {
		name, unit string
		raw, want  float64
	}{
		{"setup_s", "s", 1, 0.5},
		{"latency_p50_ms", "ms", 10, 8},
		{"mna.point_us", "us", 5, 4},
		{"ops_per_s", "1/s", 40, 50},
		{"peak_rss_mb", "MB", 30, 30},
		{"detect.cells_per_op", "count", 96, 96},
	} {
		if got := sp.scaled(c.name, c.unit, c.raw); got != c.want {
			t.Errorf("%s %v %s → %v, want %v", c.name, c.raw, c.unit, got, c.want)
		}
	}
}

func TestSpeedMeterSamples(t *testing.T) {
	before := time.Now()
	m := &speedMeter{}
	if !m.due(libCadence.every) {
		t.Error("a meter without samples is not due")
	}
	m.sample(4)
	if m.due(libCadence.every) {
		t.Errorf("due right after a sample; want a gap of %v", libCadence.every)
	}
	m.sample(4)
	if len(m.samples) != 2 || m.samples[0].runMs <= 0 {
		t.Fatalf("samples %+v, want two with positive kernel times", m.samples)
	}
	if m.pausedTotal() <= 0 {
		t.Error("sampling paused the workload for no time")
	}
	if f := m.slowdown(before, time.Now()); f <= 0 {
		t.Errorf("slowdown %v, want > 0", f)
	}
	if f := m.slowdown(before.Add(-time.Hour), before.Add(-time.Minute)); f != 1 {
		t.Errorf("slowdown of an interval without samples = %v, want 1", f)
	}
}

func TestParseRunQueueWait(t *testing.T) {
	for line, want := range map[string]time.Duration{
		"343555 73743 12\n": 73743,
		"0 0 1":             0,
		"343555":            0,
		"":                  0,
		"1 x 2":             0,
	} {
		if got := parseRunQueueWait(line); got != want {
			t.Errorf("%q → %v, want %v", line, got, want)
		}
	}
}

func TestWindowLeavesOutPauses(t *testing.T) {
	w := newWindow()
	w.setupDone(time.Now())
	start := w.windowStart()
	for i := 0; i < 20; i++ {
		w.meter.sample(4)
	}
	w.windowDone()
	elapsed := w.windowAt[1].Sub(start).Seconds()
	paused := (w.meter.pausedTotal() - w.pausedAt).Seconds()
	if paused <= 0 || w.wallS <= 0 || math.Abs(w.wallS+paused-elapsed) > 1e-9 {
		t.Errorf("wall %v s of %v s elapsed with %v s paused", w.wallS, elapsed, paused)
	}
	if sp := w.speed(); sp.Setup <= 0 || sp.Window <= 0 {
		t.Errorf("speed %+v, want both slowdowns measured", sp)
	}
}
