// Package diagnose builds fault dictionaries on top of the
// multi-configuration DFT and uses them for fault location — the
// diagnosis thread of the paper's related work ([7]–[10], [13]). Where
// detection only asks "does some configuration expose the fault?",
// diagnosis asks "which fault is it?": each fault gets a signature — a
// ternary symbol (nominal / response high / response low) per
// (configuration, frequency band) cell — and a measured circuit is
// located by matching its signature against the dictionary.
//
// The multi-configuration technique helps diagnosis for the same reason
// it helps detection: different configurations expose different
// components, so signatures that collide in the functional configuration
// separate across test configurations (measured by Resolution).
package diagnose

import (
	"errors"
	"fmt"
	"math/cmplx"
	"sort"
	"strings"

	"analogdft/internal/analysis"
	"analogdft/internal/circuit"
	"analogdft/internal/detect"
	"analogdft/internal/dft"
	"analogdft/internal/fault"
)

// ErrBadDictionary is returned for malformed dictionary parameters.
var ErrBadDictionary = errors.New("diagnose: bad dictionary")

// Symbol is one signature cell: the response in a (configuration, band)
// cell is nominal, high or low.
type Symbol int8

// Signature cell symbols.
const (
	Nominal Symbol = 0
	High    Symbol = 1
	Low     Symbol = -1
)

// String implements fmt.Stringer.
func (s Symbol) String() string {
	switch s {
	case High:
		return "+"
	case Low:
		return "-"
	default:
		return "0"
	}
}

// Signature is a fault's symbol vector over all (configuration, band)
// cells, configurations outer, bands inner.
type Signature []Symbol

// String renders e.g. "0+|-0" (configurations separated by '|').
func (sig Signature) String() string { return sig.format(0) }

func (sig Signature) format(bandsPerConfig int) string {
	var b strings.Builder
	for i, s := range sig {
		if bandsPerConfig > 0 && i > 0 && i%bandsPerConfig == 0 {
			b.WriteByte('|')
		}
		b.WriteString(s.String())
	}
	return b.String()
}

// Distance returns the Hamming distance between two signatures of equal
// length (-1 when lengths differ).
func Distance(a, b Signature) int {
	if len(a) != len(b) {
		return -1
	}
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

// Options parameterizes dictionary construction.
type Options struct {
	// Eps is the deviation threshold for a non-nominal symbol (default
	// 0.10).
	Eps float64
	// Points is the full grid size across the region (default 120; it is
	// rounded up to a multiple of Bands).
	Points int
	// Bands is the number of log-frequency bands per configuration
	// (default 4).
	Bands int
}

func (o Options) withDefaults() Options {
	if o.Eps == 0 {
		o.Eps = 0.10
	}
	if o.Bands == 0 {
		o.Bands = 4
	}
	if o.Points == 0 {
		o.Points = 120
	}
	if rem := o.Points % o.Bands; rem != 0 {
		o.Points += o.Bands - rem
	}
	return o
}

// Dictionary is a fault dictionary over a set of configurations.
type Dictionary struct {
	// Source names the circuit.
	Source string
	// Configs are the dictionary configurations in row order.
	Configs []dft.Configuration
	// Faults are the dictionary faults in column order.
	Faults fault.List
	// Signatures[i] is the signature of Faults[i].
	Signatures []Signature
	// Region is the analysis region; Bands per configuration.
	Region analysis.Region
	Bands  int
	// Eps is the symbol threshold.
	Eps float64

	grid     []float64
	circuits []*circuit.Circuit
	nominals []*analysis.Response
}

// Build constructs the dictionary for the given configuration indices of
// a DFT-modified circuit.
func Build(m *dft.Modified, cfgIndices []int, faults fault.List, region analysis.Region, opts Options) (*Dictionary, error) {
	opts = opts.withDefaults()
	if len(cfgIndices) == 0 {
		return nil, fmt.Errorf("%w: no configurations", ErrBadDictionary)
	}
	if err := faults.Validate(); err != nil {
		return nil, err
	}
	if len(faults) == 0 {
		return nil, fmt.Errorf("%w: no faults", ErrBadDictionary)
	}
	if err := region.Validate(); err != nil {
		return nil, err
	}
	d := &Dictionary{
		Source: m.Base.Name,
		Faults: faults,
		Region: region,
		Bands:  opts.Bands,
		Eps:    opts.Eps,
		grid:   region.Spec(opts.Points).Grid(),
	}
	for _, idx := range cfgIndices {
		cfg, err := m.Config(idx)
		if err != nil {
			return nil, err
		}
		ckt, err := m.Configure(cfg)
		if err != nil {
			return nil, err
		}
		nom, err := analysis.SweepOnGrid(ckt, d.grid)
		if err != nil {
			return nil, fmt.Errorf("diagnose: nominal sweep of %s: %w", cfg, err)
		}
		d.Configs = append(d.Configs, cfg)
		d.circuits = append(d.circuits, ckt)
		d.nominals = append(d.nominals, nom)
	}
	for _, f := range faults {
		sig, err := d.signatureOfFault(f)
		if err != nil {
			return nil, fmt.Errorf("diagnose: fault %s: %w", f.ID, err)
		}
		d.Signatures = append(d.Signatures, sig)
	}
	return d, nil
}

// signatureOfFault measures one fault across every configuration.
func (d *Dictionary) signatureOfFault(f fault.Fault) (Signature, error) {
	sig := make(Signature, 0, len(d.Configs)*d.Bands)
	for ci := range d.Configs {
		faulty, err := f.Apply(d.circuits[ci])
		if err != nil {
			return nil, err
		}
		resp, err := analysis.SweepOnGrid(faulty, d.grid)
		if err != nil {
			return nil, err
		}
		sig = append(sig, d.encode(d.nominals[ci], resp)...)
	}
	return sig, nil
}

// encode turns a measured response into per-band symbols against a
// nominal response.
//
// Its rule is not Definition 1's analysis.PointDeviation, on purpose:
// a dictionary symbol needs the direction of the change, not only its
// size. Each point scores the signed (|Hf| − |Hn|)/|Hn| with den = |Hn|
// and no measurement floor (a point with |Hn| = 0 is skipped), and a
// point whose solvability changed scores +1e9 towards High, where
// PointDeviation would return +Inf. Routing it through PointDeviation
// would change the floor, the sign and that score, and so the
// dictionary's symbols.
func (d *Dictionary) encode(nominal, measured *analysis.Response) Signature {
	perBand := len(d.grid) / d.Bands
	out := make(Signature, d.Bands)
	for b := 0; b < d.Bands; b++ {
		lo, hi := b*perBand, (b+1)*perBand
		if b == d.Bands-1 {
			hi = len(d.grid)
		}
		// A band is High/Low when the dominant beyond-ε deviation raises/
		// lowers the magnitude; ties resolve to the larger total.
		up, down := 0.0, 0.0
		for i := lo; i < hi; i++ {
			if !nominal.Valid[i] || !measured.Valid[i] {
				if nominal.Valid[i] != measured.Valid[i] {
					up += 1e9 // solvability changed: strongly anomalous
				}
				continue
			}
			mn := cmplx.Abs(nominal.H[i])
			mf := cmplx.Abs(measured.H[i])
			if mn == 0 {
				continue
			}
			rel := (mf - mn) / mn
			switch {
			case rel > d.Eps:
				up += rel
			case rel < -d.Eps:
				down += -rel
			}
		}
		switch {
		case up == 0 && down == 0:
			out[b] = Nominal
		case up >= down:
			out[b] = High
		default:
			out[b] = Low
		}
	}
	return out
}

// SignatureOfCircuit measures a device-under-test circuit builder across
// the dictionary configurations: mutate receives a clone of each
// configured circuit and applies the DUT's defect (tests use
// fault.Fault.Apply; a real flow would substitute measured responses).
func (d *Dictionary) SignatureOfCircuit(mutate func(*circuit.Circuit) (*circuit.Circuit, error)) (Signature, error) {
	sig := make(Signature, 0, len(d.Configs)*d.Bands)
	for ci := range d.Configs {
		dut, err := mutate(d.circuits[ci])
		if err != nil {
			return nil, err
		}
		resp, err := analysis.SweepOnGrid(dut, d.grid)
		if err != nil {
			return nil, err
		}
		sig = append(sig, d.encode(d.nominals[ci], resp)...)
	}
	return sig, nil
}

// Diagnose returns the IDs of faults whose signatures match sig exactly.
func (d *Dictionary) Diagnose(sig Signature) []string {
	var out []string
	for i, s := range d.Signatures {
		if Distance(s, sig) == 0 {
			out = append(out, d.Faults[i].ID)
		}
	}
	return out
}

// Nearest returns the fault IDs at minimum Hamming distance from sig and
// that distance. An all-nominal signature diagnoses a fault-free device:
// Nearest still reports the closest dictionary entries.
func (d *Dictionary) Nearest(sig Signature) ([]string, int) {
	best := -1
	var out []string
	for i, s := range d.Signatures {
		dist := Distance(s, sig)
		if dist < 0 {
			continue
		}
		switch {
		case best < 0 || dist < best:
			best = dist
			out = []string{d.Faults[i].ID}
		case dist == best:
			out = append(out, d.Faults[i].ID)
		}
	}
	return out, best
}

// IsFaultFree reports whether the signature is all-nominal.
func IsFaultFree(sig Signature) bool {
	for _, s := range sig {
		if s != Nominal {
			return false
		}
	}
	return true
}

// AmbiguityGroups partitions the faults into groups with identical
// signatures, sorted by group size descending then first ID.
func (d *Dictionary) AmbiguityGroups() [][]string {
	byKey := make(map[string][]string)
	for i, s := range d.Signatures {
		k := s.String()
		byKey[k] = append(byKey[k], d.Faults[i].ID)
	}
	out := make([][]string, 0, len(byKey))
	for _, g := range byKey {
		sort.Strings(g)
		out = append(out, g)
	}
	sort.Slice(out, func(a, b int) bool {
		if len(out[a]) != len(out[b]) {
			return len(out[a]) > len(out[b])
		}
		return out[a][0] < out[b][0]
	})
	return out
}

// Resolution is the diagnostic resolution: the number of ambiguity groups
// divided by the number of faults (1 = every fault uniquely located).
func (d *Dictionary) Resolution() float64 {
	if len(d.Faults) == 0 {
		return 0
	}
	return float64(len(d.AmbiguityGroups())) / float64(len(d.Faults))
}

// FromMatrixRows is a convenience that builds a dictionary over the rows
// of an existing detectability matrix result (e.g. the optimized
// configuration set).
func FromMatrixRows(m *dft.Modified, mx *detect.Matrix, rows []int, opts Options) (*Dictionary, error) {
	var idxs []int
	for _, r := range rows {
		if r < 0 || r >= mx.NumConfigs() {
			return nil, fmt.Errorf("%w: row %d out of range", ErrBadDictionary, r)
		}
		idxs = append(idxs, mx.Configs[r].Index)
	}
	return Build(m, idxs, mx.Faults, mx.Region, opts)
}
