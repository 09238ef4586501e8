package main

import (
	"context"
	"encoding/json"
	"testing"

	"analogdft"
)

func TestCheckServed(t *testing.T) {
	payload := []byte(`{"configs":["C0","C1"],"det":[[true],[false]]}`)
	hit := served{view: jobView{ID: "job-1", Kind: "matrix", State: "done", Cached: true}, payload: payload, stream: true, rows: 2}
	if err := checkServed(hit, true, payload); err != nil {
		t.Fatalf("a correct hit failed: %v", err)
	}
	for name, c := range map[string]struct {
		mutate func(*served)
		hot    bool
	}{
		"hit not done":        {func(s *served) { s.view.State = "running" }, true},
		"hot miss":            {func(s *served) { s.view.Cached = false }, true},
		"cold hit":            {func(s *served) {}, false},
		"bytes differ":        {func(s *served) { s.payload = []byte(`{"configs":["C0","C1"],"det":[[false],[false]]}`) }, true},
		"not JSON":            {func(s *served) { s.payload = []byte(`{"configs":`) }, true},
		"missing stream rows": {func(s *served) { s.rows = 0 }, true},
	} {
		s := hit
		c.mutate(&s)
		if err := checkServed(s, c.hot, payload); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	plain := hit
	plain.stream, plain.rows = false, 0
	if err := checkServed(plain, true, payload); err != nil {
		t.Errorf("a plain read needs no row events: %v", err)
	}
}

func TestRecomputeCatchesAWrongAnswer(t *testing.T) {
	req := request{Kind: "matrix", Bench: "sop-bandpass", Faults: faultSpec{Universe: "deviation", Frac: 0.2}, Options: optionsSpec{Eps: 0.1}}
	bench := analogdft.CircuitLibrary()[req.Bench]
	s := analogdft.NewSession(bench, analogdft.DeviationFaults(bench.Circuit, 0.2), analogdft.Options{Eps: 0.1})
	mx, err := s.Matrix(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	encode := func(det [][]bool) []byte {
		raw, err := json.Marshal(map[string]any{"det": det, "coverage": mx.FaultCoverage()})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if err := recompute(coldJob{req: req, kind: "matrix", payload: encode(mx.Det)}); err != nil {
		t.Fatalf("the library's own answer was rejected: %v", err)
	}
	wrong := make([][]bool, len(mx.Det))
	for i, row := range mx.Det {
		wrong[i] = append([]bool(nil), row...)
	}
	wrong[0][0] = !wrong[0][0]
	if err := recompute(coldJob{req: req, kind: "matrix", payload: encode(wrong)}); err == nil {
		t.Error("a flipped Det bit was accepted")
	}
}
