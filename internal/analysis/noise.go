package analysis

import (
	"errors"
	"fmt"
	"math/cmplx"

	"analogdft/internal/circuit"
	"analogdft/internal/mna"
	"analogdft/internal/numeric"
)

// Boltzmann constant (J/K).
const kBoltzmann = 1.380649e-23

// NoiseSpectrum is the output-referred thermal noise of a circuit.
type NoiseSpectrum struct {
	Freqs []float64
	// Density[i] is the output noise power spectral density (V²/Hz) at
	// Freqs[i], summed over every resistor's 4kTR Johnson noise.
	Density []float64
	// PerResistor[name][i] is the contribution of one resistor.
	PerResistor map[string][]float64
	// TempK is the analysis temperature.
	TempK float64
}

// TotalAt returns the noise voltage density (V/√Hz) at grid index i.
func (n *NoiseSpectrum) TotalAt(i int) float64 {
	if i < 0 || i >= len(n.Density) {
		return 0
	}
	return sqrt(n.Density[i])
}

func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	// Newton iteration avoids importing math twice; straightforward and
	// exact enough — but math.Sqrt is clearer:
	return mathSqrt(v)
}

// OutputNoise computes the output-referred thermal-noise spectrum of the
// circuit over a grid: each resistor R contributes a white current source
// of density 4kT/R across its terminals; the contribution to the output is
// |Z_t(jω)|²·4kT/R where Z_t is the transfer impedance from the resistor's
// terminals to the output. Independent sources are zeroed (the input is
// not driven). Temperature in kelvin (0 selects 300 K).
//
// This is the classical SPICE .NOISE analysis restricted to thermal
// sources; it exercises the same MNA superposition machinery the
// testability analysis relies on and is validated against the analytic
// kT/C result in tests.
func OutputNoise(ckt *circuit.Circuit, grid []float64, tempK float64) (*NoiseSpectrum, error) {
	if len(grid) == 0 {
		return nil, fmt.Errorf("%w: empty grid", ErrBadSweep)
	}
	if tempK <= 0 {
		tempK = 300
	}
	out := circuit.CanonicalNode(ckt.Output)
	if out == "" {
		return nil, fmt.Errorf("%w: no output node", circuit.ErrInvalid)
	}
	ns := &NoiseSpectrum{
		Freqs:       append([]float64(nil), grid...),
		Density:     make([]float64, len(grid)),
		PerResistor: make(map[string][]float64),
		TempK:       tempK,
	}
	// The stimulus is zeroed during noise analysis, which AC-grounds the
	// input: attach the (to-be-zeroed) stimulus source if the input is not
	// already driven.
	base := ckt
	if driven, err := mna.Driven(ckt); err == nil {
		base = driven
	}
	for _, comp := range base.Components() {
		r, ok := comp.(*circuit.Resistor)
		if !ok {
			continue
		}
		if r.Ohms <= 0 {
			return nil, fmt.Errorf("analysis: resistor %q has non-positive value", r.Name())
		}
		// Inject a unit AC current across the resistor, sources zeroed.
		probe := zeroedSources(base)
		if err := probe.Add(&circuit.ISource{Label: "_INOISE", Plus: r.A, Minus: r.B, Amplitude: 1}); err != nil {
			return nil, err
		}
		sys, err := mna.NewSystem(probe)
		if err != nil {
			return nil, err
		}
		contrib := make([]float64, len(grid))
		s := 4 * kBoltzmann * tempK / r.Ohms // A²/Hz
		for i, f := range grid {
			sol, err := sys.SolveAt(f)
			if errors.Is(err, numeric.ErrSingular) {
				continue // singular point: no defined contribution
			}
			if err != nil {
				return nil, err
			}
			v, err := sol.Voltage(out)
			if err != nil {
				return nil, err
			}
			zt := cmplx.Abs(v) // |Z_t| in Ω for the 1 A probe
			contrib[i] = zt * zt * s
			ns.Density[i] += contrib[i]
		}
		ns.PerResistor[r.Name()] = contrib
	}
	return ns, nil
}

// zeroedSources clones the circuit with every independent source's
// amplitude set to zero (AC-ground for V sources, open for I sources —
// their stamps remain so topology is preserved).
func zeroedSources(ckt *circuit.Circuit) *circuit.Circuit {
	out := ckt.Clone()
	for _, comp := range out.Components() {
		switch s := comp.(type) {
		case *circuit.VSource:
			s.Amplitude = 0
		case *circuit.ISource:
			s.Amplitude = 0
		}
	}
	return out
}

// IntegrateNoise integrates a noise density over the grid (trapezoidal in
// linear frequency), returning the RMS noise voltage (V) across the band.
func IntegrateNoise(ns *NoiseSpectrum) float64 {
	total := 0.0
	for i := 1; i < len(ns.Freqs); i++ {
		df := ns.Freqs[i] - ns.Freqs[i-1]
		total += 0.5 * (ns.Density[i] + ns.Density[i-1]) * df
	}
	return mathSqrt(total)
}
