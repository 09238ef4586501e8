package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
)

// request mirrors the dftserved job submission body. The server rejects
// unknown fields, so the JSON names must match its API exactly.
type request struct {
	Kind    string      `json:"kind"`
	Bench   string      `json:"bench,omitempty"`
	Deck    string      `json:"deck,omitempty"`
	Faults  faultSpec   `json:"faults"`
	Options optionsSpec `json:"options"`
	Cost    string      `json:"cost,omitempty"`

	// deckPath is the file Deck was read from, for recomputation.
	deckPath string
}

type faultSpec struct {
	Universe string  `json:"universe,omitempty"`
	Frac     float64 `json:"frac,omitempty"`
}

type optionsSpec struct {
	Eps float64 `json:"eps"`
}

// serveBenches are the library benches serve requests name.
var serveBenches = []string{
	"khn-state-variable", "multistage-lp-4", "paper-biquad",
	"sallen-key-lp", "sop-bandpass", "twin-t-notch",
}

// serveFracs are the deviation sizes serve requests draw from.
var serveFracs = []float64{0.15, 0.20, 0.25}

// deck is one inline netlist serve requests may send.
type deck struct {
	path, text string
}

// readDecks loads every .cir file of dir, sorted by name.
func readDecks(dir string) ([]deck, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.cir"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []deck
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, deck{path: p, text: string(raw)})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no decks in %s", dir)
	}
	return out, nil
}

// generator deals serve requests in cycles of the same cycleSize
// requests (see newCycle), each cycle in its own seeded order, and gives
// each request an ε drawn from [0.08, 0.12], so no two requests share a
// cache key. The seed changes the order of the work and the keys, never
// its make-up: a job's cost depends on its kind, circuit and fault
// universe together, and drawing them apart let the number of costly
// combinations in a window, and so its throughput and median latency,
// move with the seed.
type generator struct {
	rng     *rand.Rand
	cycle   []request // the make-up of every cycle, in construction order
	pending []request // the rest of the current cycle
}

// Seed streams: each consumer of randomness in a run draws from its own
// stream, so adding a client or a check never shifts another's inputs.
const (
	streamWarm = iota
	streamCorpus
	streamSample
	streamClient // + client index
)

func newGenerator(seed int64, stream int, decks []deck) *generator {
	return &generator{rng: streamRand(seed, stream), cycle: newCycle(decks)}
}

// streamRand returns the seeded source of one stream of a run.
func streamRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000 + int64(stream)))
}

func (g *generator) next() request {
	if len(g.pending) == 0 {
		for _, i := range g.rng.Perm(len(g.cycle)) {
			g.pending = append(g.pending, g.cycle[i])
		}
	}
	r := g.pending[0]
	g.pending = g.pending[1:]
	r.Options.Eps = 0.08 + 0.04*g.rng.Float64()
	return r
}

// cycleSize is the number of requests in a cycle.
const cycleSize = 100

// newCycle builds the cycle's make-up: every pairing of ten kind slots (4
// matrix, 3 optimize, 1 optimize with cost "opamps", 2 evaluate) with ten
// fault-universe slots (7 deviation, 2 bipolar, 1 catastrophic). Two
// pairings in ten send an inline deck, the others name a library bench;
// benches, decks and fault sizes are handed out in turn.
func newCycle(decks []deck) []request {
	kinds := []string{"matrix", "matrix", "matrix", "matrix", "optimize", "optimize", "optimize", "opamps", "evaluate", "evaluate"}
	universes := []string{"deviation", "deviation", "deviation", "deviation", "deviation", "deviation", "deviation",
		"bipolar", "bipolar", "catastrophic"}
	var cycle []request
	nb, nd, nf := 0, 0, 0
	for i, kind := range kinds {
		for j, universe := range universes {
			r := request{Kind: kind, Faults: faultSpec{Universe: universe}}
			if kind == "opamps" {
				r.Kind, r.Cost = "optimize", "opamps"
			}
			if (i+j)%5 == 0 {
				d := decks[nd%len(decks)]
				r.Deck, r.deckPath = d.text, d.path
				nd++
			} else {
				r.Bench = serveBenches[nb%len(serveBenches)]
				nb++
			}
			if universe != "catastrophic" {
				r.Faults.Frac = serveFracs[nf%len(serveFracs)]
				nf++
			}
			cycle = append(cycle, r)
		}
	}
	return cycle
}

// body is the request's JSON submission.
func (r request) body() []byte {
	raw, err := json.Marshal(r)
	if err != nil {
		panic(err) // a request of plain fields always marshals
	}
	return raw
}
