// Package tolerance grounds the paper's tolerance ε in a process model.
// §2 fixes ε "arbitrarily … at 10%" and notes it exists "to take into
// account possible fluctuations in the process environment"; this package
// derives ε from component tolerances instead: a deterministic Monte
// Carlo over process-only variation yields, per frequency, an envelope of
// the deviation |ΔT/T| a fault-free circuit can exhibit. Any fault whose
// deviation exceeds the envelope is distinguishable from process noise.
//
// The envelope can be collapsed to a scalar ε (the paper's usage) or fed
// to detect.Options.EpsProfile as a frequency-dependent threshold.
//
// Each sample is solved with analysis.SweepOnGrid on its own varied
// clone, not through the detect row walk: every Monte Carlo sample
// varies every component at once, so it is no rank-1 update of the
// nominal and neither the rank-1 basis nor a single-component patch
// applies.
package tolerance

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"analogdft/internal/analysis"
	"analogdft/internal/circuit"
)

// ErrBadSpec is returned for invalid Monte Carlo specifications.
var ErrBadSpec = errors.New("tolerance: bad specification")

// Spec parameterizes the Monte Carlo tolerance analysis.
type Spec struct {
	// PassiveTol is the uniform relative tolerance of every passive
	// component (e.g. 0.01 for ±1%).
	PassiveTol float64
	// Samples is the number of Monte Carlo samples (default 200).
	Samples int
	// Seed seeds the deterministic RNG (default 1).
	Seed int64
	// Quantile in (0, 1] selects the per-frequency envelope quantile over
	// samples (default 1 = worst case).
	Quantile float64
}

func (s Spec) withDefaults() Spec {
	if s.Samples == 0 {
		s.Samples = 200
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Quantile == 0 {
		s.Quantile = 1
	}
	return s
}

// Validate checks the spec.
func (s Spec) Validate() error {
	s = s.withDefaults()
	if s.PassiveTol < 0 || s.PassiveTol >= 1 {
		return fmt.Errorf("%w: passive tolerance %g", ErrBadSpec, s.PassiveTol)
	}
	if s.Samples < 1 {
		return fmt.Errorf("%w: %d samples", ErrBadSpec, s.Samples)
	}
	if s.Quantile <= 0 || s.Quantile > 1 {
		return fmt.Errorf("%w: quantile %g", ErrBadSpec, s.Quantile)
	}
	return nil
}

// Envelope returns, per grid frequency, the chosen quantile (over Monte
// Carlo samples) of the fault-free process deviation |ΔT/T|.
func Envelope(ckt *circuit.Circuit, grid []float64, spec Spec) ([]float64, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(grid) == 0 {
		return nil, fmt.Errorf("%w: empty grid", analysis.ErrBadSweep)
	}
	nominal, err := analysis.SweepOnGrid(ckt, grid)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	passives := ckt.Passives()
	// samplesAt[i] collects the per-sample deviations at grid point i.
	samplesAt := make([][]float64, len(grid))
	for i := range samplesAt {
		samplesAt[i] = make([]float64, 0, spec.Samples)
	}
	for n := 0; n < spec.Samples; n++ {
		varied := ckt.Clone()
		for _, p := range passives {
			v, err := varied.Valued(p.Name())
			if err != nil {
				return nil, err
			}
			v.SetValue(v.Value() * (1 + spec.PassiveTol*(2*rng.Float64()-1)))
		}
		resp, err := analysis.SweepOnGrid(varied, grid)
		if err != nil {
			return nil, err
		}
		prof, err := analysis.RelativeDeviation(nominal, resp, 0)
		if err != nil {
			return nil, err
		}
		for i, r := range prof.Rel {
			if math.IsInf(r, 1) {
				r = math.MaxFloat64
			}
			samplesAt[i] = append(samplesAt[i], r)
		}
	}
	env := make([]float64, len(grid))
	for i, s := range samplesAt {
		sort.Float64s(s)
		k := int(math.Ceil(spec.Quantile*float64(len(s)))) - 1
		if k < 0 {
			k = 0
		}
		if k >= len(s) {
			k = len(s) - 1
		}
		env[i] = s[k]
	}
	return env, nil
}

// DeriveEps collapses the envelope over a region into the scalar ε the
// paper uses: the worst per-frequency envelope value times a safety
// margin (pass 1 for none). A fault deviating beyond this ε anywhere is
// distinguishable from process variation everywhere.
func DeriveEps(ckt *circuit.Circuit, region analysis.Region, points int, spec Spec, margin float64) (float64, error) {
	if err := region.Validate(); err != nil {
		return 0, err
	}
	if margin <= 0 {
		return 0, fmt.Errorf("%w: margin %g", ErrBadSpec, margin)
	}
	if points < 2 {
		points = 121
	}
	env, err := Envelope(ckt, region.Spec(points).Grid(), spec)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for _, e := range env {
		if e > worst {
			worst = e
		}
	}
	return worst * margin, nil
}

// Profile scales the envelope by a margin for use as
// detect.Options.EpsProfile (the per-frequency threshold).
func Profile(env []float64, margin float64) ([]float64, error) {
	if margin <= 0 {
		return nil, fmt.Errorf("%w: margin %g", ErrBadSpec, margin)
	}
	out := make([]float64, len(env))
	for i, e := range env {
		out[i] = e * margin
	}
	return out, nil
}
