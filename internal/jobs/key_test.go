package jobs

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// resolveKey resolves req and returns its cache key, failing the test on
// validation errors.
func resolveKey(t *testing.T, req Request) string {
	t.Helper()
	res, err := req.Resolve()
	if err != nil {
		t.Fatalf("Resolve(%+v): %v", req, err)
	}
	return res.Key
}

// mutateCosmetics rewrites a deck without changing its meaning: extra
// comments, blank lines, inline comments stripped/added, and runs of
// spaces collapsed or expanded.
func mutateCosmetics(deck string) string {
	var b strings.Builder
	b.WriteString("* cosmetic header the parser must ignore\n\n")
	for _, line := range strings.Split(deck, "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "*") {
			continue // drop originals; we inject our own comments
		}
		// Expand field separators and tack on an inline comment.
		fields := strings.Fields(strings.SplitN(trimmed, ";", 2)[0])
		if len(fields) == 0 {
			continue
		}
		b.WriteString("  " + strings.Join(fields, "\t  ") + "   ; noise\n")
		b.WriteString("* interleaved comment\n")
	}
	return b.String()
}

// testDecks returns every deck under testdata that resolves as a matrix
// job — the property-test corpus.
func testDecks(t *testing.T) map[string]string {
	t.Helper()
	decks := make(map[string]string)
	for _, pattern := range []string{"../../testdata/*.cir", "../../testdata/lint/*.cir"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			req := Request{Kind: KindMatrix, Deck: string(raw)}
			if _, err := req.Resolve(); err != nil {
				continue // lint fixtures are deliberately broken decks
			}
			decks[filepath.Base(p)] = string(raw)
		}
	}
	if len(decks) == 0 {
		t.Fatal("no resolvable testdata decks found")
	}
	return decks
}

// TestCacheKeyCosmeticInvariance: whitespace, comments and blank lines
// must not change the content address — over every resolvable testdata
// deck and every job kind.
func TestCacheKeyCosmeticInvariance(t *testing.T) {
	for name, deck := range testDecks(t) {
		for _, kind := range []Kind{KindEvaluate, KindMatrix, KindOptimize} {
			orig := resolveKey(t, Request{Kind: kind, Deck: deck})
			mutated := resolveKey(t, Request{Kind: kind, Deck: mutateCosmetics(deck)})
			if orig != mutated {
				t.Errorf("%s/%s: cosmetic mutation changed key:\n  %s\n  %s", name, kind, orig, mutated)
			}
		}
	}
}

// TestCacheKeyOptionDefaultsInvariance: spelling out the documented
// defaults must hash identically to omitting them, in any combination.
func TestCacheKeyOptionDefaultsInvariance(t *testing.T) {
	for name, deck := range testDecks(t) {
		base := resolveKey(t, Request{Kind: KindMatrix, Deck: deck})
		explicit := []OptionSpec{
			{Eps: 0.10},
			{Points: 241},
			{MeasFloor: 1e-4},
			{Engine: "incremental"},
			{OnError: "degrade"},
			{Eps: 0.10, Points: 241, MeasFloor: 1e-4, Engine: "incremental", OnError: "degrade"},
			// Workers never enters the key: same matrix at any parallelism.
			{Workers: 7},
		}
		for i, spec := range explicit {
			got := resolveKey(t, Request{Kind: KindMatrix, Deck: deck, Options: spec})
			if got != base {
				t.Errorf("%s: explicit defaults #%d changed key: %s != %s", name, i, got, base)
			}
		}
	}
}

// TestCacheKeyValueSpelling: equivalent SPICE value spellings (15.915k vs
// 15915) collapse to one key.
func TestCacheKeyValueSpelling(t *testing.T) {
	deck, err := os.ReadFile("../../testdata/biquad.cir")
	if err != nil {
		t.Fatal(err)
	}
	s := string(deck)
	if !strings.Contains(s, "15.915k") {
		t.Fatal("fixture drifted: biquad.cir no longer uses 15.915k")
	}
	respelled := strings.ReplaceAll(s, "15.915k", "15915")
	a := resolveKey(t, Request{Kind: KindMatrix, Deck: s})
	b := resolveKey(t, Request{Kind: KindMatrix, Deck: respelled})
	if a != b {
		t.Errorf("value respelling changed key: %s != %s", a, b)
	}
}

// TestCacheKeySensitivity: anything that can change the result must
// change the key — component values, job kind, engine mode, fault
// universe, thresholds and optimize cost.
func TestCacheKeySensitivity(t *testing.T) {
	deckBytes, err := os.ReadFile("../../testdata/biquad.cir")
	if err != nil {
		t.Fatal(err)
	}
	deck := string(deckBytes)
	base := Request{Kind: KindMatrix, Deck: deck}
	baseKey := resolveKey(t, base)

	perturbed := strings.Replace(deck, "15.915k", "16k", 1)
	if perturbed == deck {
		t.Fatal("fixture drifted: component value not found")
	}
	variants := map[string]Request{
		"component value": {Kind: KindMatrix, Deck: perturbed},
		"job kind":        {Kind: KindEvaluate, Deck: deck},
		"engine mode":     {Kind: KindMatrix, Deck: deck, Options: OptionSpec{Engine: "lowrank"}},
		"eps":             {Kind: KindMatrix, Deck: deck, Options: OptionSpec{Eps: 0.25}},
		"points":          {Kind: KindMatrix, Deck: deck, Options: OptionSpec{Points: 101}},
		"region":          {Kind: KindMatrix, Deck: deck, Options: OptionSpec{LoHz: 100, HiHz: 1e5}},
		"on_error":        {Kind: KindMatrix, Deck: deck, Options: OptionSpec{OnError: "failfast"}},
		"fault universe":  {Kind: KindMatrix, Deck: deck, Faults: FaultSpec{Universe: "catastrophic"}},
		"fault frac":      {Kind: KindMatrix, Deck: deck, Faults: FaultSpec{Frac: 0.5}},
	}
	seen := map[string]string{baseKey: "base"}
	for what, req := range variants {
		key := resolveKey(t, req)
		if prev, dup := seen[key]; dup {
			t.Errorf("%s: key collides with %s: %s", what, prev, key)
		}
		seen[key] = what
	}

	optA := resolveKey(t, Request{Kind: KindOptimize, Deck: deck, Cost: "configs"})
	optB := resolveKey(t, Request{Kind: KindOptimize, Deck: deck, Cost: "opamps"})
	if optA == optB {
		t.Errorf("optimize cost does not enter the key: %s", optA)
	}
}

// TestCacheKeyBenchMatchesInlineDeck: submitting the library bench and
// submitting its rendered deck are the same job.
func TestCacheKeyStable(t *testing.T) {
	deckBytes, err := os.ReadFile("../../testdata/biquad.cir")
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Kind: KindMatrix, Deck: string(deckBytes)}
	a, b := resolveKey(t, req), resolveKey(t, req)
	if a != b {
		t.Errorf("key not deterministic: %s != %s", a, b)
	}
	if !strings.HasPrefix(a, "sha256:") || len(a) != len("sha256:")+64 {
		t.Errorf("malformed key %q", a)
	}
}

// TestCacheKeyGolden pins the exact content addresses of the biquad matrix
// request under the default and the lowrank engine. Keys already held in
// a shared store stay valid only while these strings do: the key hashes
// the engine by name, so renumbering EngineMode must not move them.
func TestCacheKeyGolden(t *testing.T) {
	deckBytes, err := os.ReadFile("../../testdata/biquad.cir")
	if err != nil {
		t.Fatal(err)
	}
	for engine, want := range map[string]string{
		"":        "sha256:d613228667cc60f9cc80334129024e4c702a576a80956b3607c5a6567e5976a5",
		"lowrank": "sha256:6a0de4defa2a6fdfec6bf8c5fa56aa21f5a90fcaaff0eef1ca7c5f0e717596db",
	} {
		req := Request{Kind: KindMatrix, Deck: string(deckBytes), Options: OptionSpec{Engine: engine}}
		if got := resolveKey(t, req); got != want {
			t.Errorf("engine %q: key %s, want %s", engine, got, want)
		}
	}
}

// TestResolveRejectsRetiredEngine: "naive" names no engine, so a request
// spelling it is a bad request rather than a distinct cache key.
func TestResolveRejectsRetiredEngine(t *testing.T) {
	req := Request{Kind: KindMatrix, Bench: "paper-biquad", Options: OptionSpec{Engine: "naive"}}
	if _, err := req.Resolve(); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Resolve: err = %v, want ErrBadRequest", err)
	}
}
