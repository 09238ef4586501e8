package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"

	"analogdft"
)

// omegaTol is the absolute tolerance (in ω-det percent) on every stored
// ω-detectability figure; Det bits, coverage and the optimizer's choices
// must match exactly.
const omegaTol = 1e-9

// digest is the correctness fingerprint of one library op's output.
type digest struct {
	// DetSHA256 hashes the Det bits of every matrix the op built (the
	// full matrix, then the partial-DFT matrix when there is one).
	DetSHA256 string  `json:"det_sha256"`
	Coverage  float64 `json:"coverage"`
	// OmegaRowSums and OmegaFaultMax condense the ω-det matrix: the sum
	// over faults per configuration, and the best configuration per fault.
	OmegaRowSums  []float64 `json:"omega_row_sums"`
	OmegaFaultMax []float64 `json:"omega_fault_max"`
	BestRows      []int     `json:"best_rows"`
	ChosenOpamps  []string  `json:"chosen_opamps"`
	// Initial* describe the §2 evaluation of the unmodified circuit
	// (paper-flow only).
	InitialCoverage float64  `json:"initial_coverage,omitempty"`
	InitialDetected []string `json:"initial_detected,omitempty"`
}

// newDigest fingerprints a matrix with its optimizer results; partial and
// initial may be nil.
func newDigest(mx, partial *analogdft.Matrix, opt *analogdft.Result, ops *analogdft.OpampResult, initial *analogdft.Row) digest {
	h := sha256.New()
	for _, m := range []*analogdft.Matrix{mx, partial} {
		if m == nil {
			continue
		}
		for _, row := range m.Det {
			bits := make([]byte, len(row))
			for j, d := range row {
				if d {
					bits[j] = 1
				}
			}
			h.Write(bits)
			h.Write([]byte{'\n'})
		}
	}
	d := digest{
		DetSHA256:     hex.EncodeToString(h.Sum(nil)),
		Coverage:      mx.FaultCoverage(),
		OmegaRowSums:  make([]float64, len(mx.Omega)),
		OmegaFaultMax: make([]float64, len(mx.Faults)),
		BestRows:      append([]int{}, opt.Best.Rows...),
		ChosenOpamps:  append([]string{}, ops.Chosen...),
	}
	for i, row := range mx.Omega {
		for j, w := range row {
			d.OmegaRowSums[i] += w
			d.OmegaFaultMax[j] = math.Max(d.OmegaFaultMax[j], w)
		}
	}
	if initial != nil {
		d.InitialCoverage = initial.FaultCoverage()
		d.InitialDetected = []string{}
		for _, e := range initial.Evals {
			if e.Detectable {
				d.InitialDetected = append(d.InitialDetected, e.Fault.ID)
			}
		}
	}
	return d
}

// diff lists every way got departs from want; empty means equal.
func (want digest) diff(got digest) []string {
	var out []string
	if got.DetSHA256 != want.DetSHA256 {
		out = append(out, fmt.Sprintf("det digest %s, want %s", got.DetSHA256[:12], want.DetSHA256[:min(12, len(want.DetSHA256))]))
	}
	if got.Coverage != want.Coverage {
		out = append(out, fmt.Sprintf("coverage %g, want %g", got.Coverage, want.Coverage))
	}
	out = append(out, diffFloats("omega row sums", got.OmegaRowSums, want.OmegaRowSums)...)
	out = append(out, diffFloats("omega fault max", got.OmegaFaultMax, want.OmegaFaultMax)...)
	if !reflect.DeepEqual(got.BestRows, want.BestRows) {
		out = append(out, fmt.Sprintf("best rows %v, want %v", got.BestRows, want.BestRows))
	}
	if !reflect.DeepEqual(got.ChosenOpamps, want.ChosenOpamps) {
		out = append(out, fmt.Sprintf("chosen opamps %v, want %v", got.ChosenOpamps, want.ChosenOpamps))
	}
	if got.InitialCoverage != want.InitialCoverage {
		out = append(out, fmt.Sprintf("initial coverage %g, want %g", got.InitialCoverage, want.InitialCoverage))
	}
	if !reflect.DeepEqual(got.InitialDetected, want.InitialDetected) {
		out = append(out, fmt.Sprintf("initially detected %v, want %v", got.InitialDetected, want.InitialDetected))
	}
	return out
}

func diffFloats(what string, got, want []float64) []string {
	if len(got) != len(want) {
		return []string{fmt.Sprintf("%s: %d values, want %d", what, len(got), len(want))}
	}
	for i := range got {
		if !(math.Abs(got[i]-want[i]) <= omegaTol) {
			return []string{fmt.Sprintf("%s[%d] = %.12g, want %.12g", what, i, got[i], want[i])}
		}
	}
	return nil
}

// golden is the committed expected output of a library workload, keyed
// by input name.
type golden struct {
	Workload string            `json:"workload"`
	Inputs   map[string]digest `json:"inputs"`
}

func goldenPath(benchDir, workload string) string {
	return filepath.Join(benchDir, "golden", workload+".json")
}

func readGolden(benchDir, workload string) (*golden, error) {
	raw, err := os.ReadFile(goldenPath(benchDir, workload))
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	var g golden
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", workload, err)
	}
	if g.Workload != workload || len(g.Inputs) == 0 {
		return nil, fmt.Errorf("golden %s: holds workload %q with %d inputs", workload, g.Workload, len(g.Inputs))
	}
	return &g, nil
}

func writeGolden(benchDir string, g *golden) error {
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	path := goldenPath(benchDir, g.Workload)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// check compares one op's output with the golden entry for its input.
func (g *golden) check(input string, got digest) []string {
	want, ok := g.Inputs[input]
	if !ok {
		return []string{"no golden entry for input " + input}
	}
	return want.diff(got)
}
