package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smoke runs a -smoke run of a workload against benchDir and returns its
// result line and error.
func smoke(t *testing.T, workload, benchDir string, extra ...string) (result, error) {
	t.Helper()
	var out bytes.Buffer
	args := append([]string{"-workload", workload, "-smoke", "-benchdir", benchDir, "-workdir", t.TempDir()}, extra...)
	err := run(args, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		t.Fatalf("%s: no result line (run error %v):\n%s", workload, err, out.String())
	}
	return res, err
}

func TestSmokeLibraryWorkloads(t *testing.T) {
	for _, w := range []string{"paper-flow", "wide-chain"} {
		for _, trace := range []string{"0", "1"} {
			res, err := smoke(t, w, "..", "-trace", trace)
			if err != nil || !res.Correct || res.Attempted != smokeOps || res.Failed != 0 {
				t.Errorf("%s trace=%s: %+v, err %v", w, trace, res, err)
			}
			specs := endToEnd
			if trace == "1" {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w, trace, len(res.Metrics), len(specs))
			}
		}
	}
}

func TestCorruptGoldenFailsTheRun(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "golden"), 0o755); err != nil {
		t.Fatal(err)
	}
	g, err := readGolden("..", "paper-flow")
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range g.Inputs {
		d.BestRows = append([]int{}, d.BestRows...)
		d.BestRows[0]++
		g.Inputs[name] = d
	}
	if err := writeGolden(dir, g); err != nil {
		t.Fatal(err)
	}
	res, err := smoke(t, "paper-flow", dir)
	var exit exitError
	if res.Correct || res.Failed == 0 || !errors.As(err, &exit) || exit == 0 {
		t.Errorf("corrupt golden: %+v, err %v; want an incorrect result and a non-zero exit", res, err)
	}
}

// TestBenchmarkFileMatchesMetrics keeps BENCHMARK.json and the metric
// lists the runs print in step.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []bound `json:"end_to_end"`
		PerLayer []bound `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []bound, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the runs print %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), runs print %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s: better %q", got[i].Name, got[i].Better)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, dftbench has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, dftbench %s", i, bf.Workloads[i].Name, w.name)
		}
	}
	// Timings and memory are bounded at 10%. setup_s carries the largest
	// relative bound the file allows; compare adds its absolute floor.
	for _, b := range bf.EndToEnd {
		want := 0.10
		if b.Name == "setup_s" {
			want = 0.25
		}
		if b.Bound <= 0 || b.Bound > want {
			t.Errorf("%s: bound %v, want (0, %v]", b.Name, b.Bound, want)
		}
	}
}
