package main

import (
	"bytes"
	"reflect"
	"testing"
)

func requestBytes(t *testing.T, seed int64, stream, n int) []byte {
	t.Helper()
	decks, err := readDecks("../decks")
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(seed, stream, decks)
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		b.Write(g.next().body())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestGeneratorIsSeeded(t *testing.T) {
	a := requestBytes(t, 1, streamClient, 200)
	if !bytes.Equal(a, requestBytes(t, 1, streamClient, 200)) {
		t.Error("the same seed produced different requests")
	}
	if bytes.Equal(a, requestBytes(t, 2, streamClient, 200)) {
		t.Error("seeds 1 and 2 produced the same requests")
	}
	if bytes.Equal(a, requestBytes(t, 1, streamClient+1, 200)) {
		t.Error("two clients of one run produced the same requests")
	}
}

// TestGeneratorCyclesHaveAFixedMakeUp deals three cycles on each of two
// seeds: every cycle must hold the same requests, ε aside, with the
// stated shares of kinds, universes and decks.
func TestGeneratorCyclesHaveAFixedMakeUp(t *testing.T) {
	decks, err := readDecks("../decks")
	if err != nil {
		t.Fatal(err)
	}
	var first map[string]int
	eps := map[float64]bool{}
	for _, seed := range []int64{7, 8} {
		g := newGenerator(seed, streamClient, decks)
		for cycle := 0; cycle < 3; cycle++ {
			makeUp := map[string]int{}
			mix := map[string]int{}
			for i := 0; i < cycleSize; i++ {
				r := g.next()
				if r.Options.Eps < 0.08 || r.Options.Eps > 0.12 || eps[r.Options.Eps] {
					t.Fatalf("eps %v out of range or repeated", r.Options.Eps)
				}
				eps[r.Options.Eps] = true
				if r.Deck != "" && (r.Bench != "" || r.deckPath == "") {
					t.Fatalf("deck request with bench %q, path %q", r.Bench, r.deckPath)
				}
				if (r.Faults.Frac == 0) != (r.Faults.Universe == "catastrophic") {
					t.Fatalf("universe %s with frac %v", r.Faults.Universe, r.Faults.Frac)
				}
				mix[r.Kind]++
				mix[r.Faults.Universe]++
				mix["cost:"+r.Cost]++
				if r.Deck != "" {
					mix["deck"]++
				}
				r.Options.Eps = 0
				makeUp[string(r.body())]++
			}
			want := map[string]int{"matrix": 40, "optimize": 40, "evaluate": 20, "cost:opamps": 10, "cost:": 90,
				"deviation": 70, "bipolar": 20, "catastrophic": 10, "deck": 20}
			for k, n := range want {
				if mix[k] != n {
					t.Fatalf("seed %d cycle %d: %d %s, want %d (mix %v)", seed, cycle, mix[k], k, n, mix)
				}
			}
			if first == nil {
				first = makeUp
			} else if !reflect.DeepEqual(makeUp, first) {
				t.Fatalf("seed %d cycle %d holds other requests than the first cycle", seed, cycle)
			}
		}
	}
}
