// Package analysis provides frequency-domain analysis on top of the MNA
// engine: frequency sweeps, transfer-function responses, corner detection,
// the reference frequency region Ω_reference of the paper (§2, Definition
// 2) and relative deviation profiles between nominal and faulty responses.
package analysis

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/cmplx"

	"analogdft/internal/circuit"
	"analogdft/internal/mna"
	"analogdft/internal/numeric"
)

// ErrBadSweep is returned for malformed sweep specifications.
var ErrBadSweep = errors.New("analysis: bad sweep specification")

// ErrAllInvalid flags a sweep in which no grid point solved: the response
// carries no information, and any deviation profile computed against it is
// identically zero — a silently wrong "nothing detectable" answer. Callers
// that tolerate isolated invalid points must still treat an all-invalid
// response as a failure.
var ErrAllInvalid = errors.New("analysis: sweep has no valid points")

// ErrorClass buckets simulation failures so error policies can react
// differently to a singular operating point (often an isolated numerical
// artifact, worth retrying) versus a structurally broken circuit.
type ErrorClass int

// Error classes, from ClassifyError.
const (
	// ClassNone is the class of a nil error.
	ClassNone ErrorClass = iota
	// ClassSingular is a singular MNA system (numeric.ErrSingular),
	// possibly at a single frequency.
	ClassSingular
	// ClassUnsupported is a component the engine cannot stamp
	// (mna.ErrUnsupported).
	ClassUnsupported
	// ClassInvalid is a malformed circuit or sweep specification.
	ClassInvalid
	// ClassOther is any other failure.
	ClassOther
)

// String implements fmt.Stringer.
func (c ErrorClass) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassSingular:
		return "singular"
	case ClassUnsupported:
		return "unsupported"
	case ClassInvalid:
		return "invalid"
	default:
		return "other"
	}
}

// ClassifyError buckets a sweep or solve failure.
func ClassifyError(err error) ErrorClass {
	switch {
	case err == nil:
		return ClassNone
	case errors.Is(err, numeric.ErrSingular):
		return ClassSingular
	case errors.Is(err, mna.ErrUnsupported):
		return ClassUnsupported
	case errors.Is(err, circuit.ErrInvalid), errors.Is(err, ErrBadSweep):
		return ClassInvalid
	default:
		return ClassOther
	}
}

// SweepSpec describes a logarithmic frequency sweep.
type SweepSpec struct {
	StartHz float64
	StopHz  float64
	Points  int
}

// Validate checks the spec.
func (s SweepSpec) Validate() error {
	if s.StartHz <= 0 || s.StopHz <= s.StartHz {
		return fmt.Errorf("%w: range [%g, %g]", ErrBadSweep, s.StartHz, s.StopHz)
	}
	if s.Points < 2 {
		return fmt.Errorf("%w: %d points", ErrBadSweep, s.Points)
	}
	return nil
}

// Grid returns the log-spaced frequency grid.
func (s SweepSpec) Grid() []float64 {
	return numeric.LogSpace(s.StartHz, s.StopHz, s.Points)
}

// DefaultProbe is the wide exploratory sweep used to locate a circuit's
// interesting frequency region before constructing Ω_reference.
var DefaultProbe = SweepSpec{StartHz: 1e-2, StopHz: 1e9, Points: 221}

// Response is a sampled transfer function H(jω) = V(out)/V(stimulus).
type Response struct {
	Freqs []float64
	H     []complex128
	// Valid[i] is false when the solve at Freqs[i] failed (singular
	// system); H[i] is meaningless there.
	Valid []bool
}

// Len returns the number of points.
func (r *Response) Len() int { return len(r.Freqs) }

// AllValid reports whether every point solved.
func (r *Response) AllValid() bool {
	return r.InvalidCount() == 0
}

// ValidCount returns the number of grid points that solved.
func (r *Response) ValidCount() int {
	n := 0
	for _, v := range r.Valid {
		if v {
			n++
		}
	}
	return n
}

// InvalidCount returns the number of singular (unsolved) grid points.
func (r *Response) InvalidCount() int {
	return len(r.Valid) - r.ValidCount()
}

// Mag returns |H| per point (NaN where invalid).
func (r *Response) Mag() []float64 {
	out := make([]float64, r.Len())
	for i, h := range r.H {
		if !r.Valid[i] {
			out[i] = math.NaN()
			continue
		}
		out[i] = cmplx.Abs(h)
	}
	return out
}

// MagDb returns |H| in dB per point (NaN where invalid).
func (r *Response) MagDb() []float64 {
	out := r.Mag()
	for i, m := range out {
		if math.IsNaN(m) {
			continue
		}
		out[i] = numeric.Db(m)
	}
	return out
}

// PhaseDeg returns the phase in degrees per point (NaN where invalid).
func (r *Response) PhaseDeg() []float64 {
	out := make([]float64, r.Len())
	for i, h := range r.H {
		if !r.Valid[i] {
			out[i] = math.NaN()
			continue
		}
		out[i] = cmplx.Phase(h) * 180 / math.Pi
	}
	return out
}

// PeakMag returns the largest valid magnitude and its frequency; ok is
// false when no point is valid.
func (r *Response) PeakMag() (mag, freqHz float64, ok bool) {
	mag = -1.0
	for i, h := range r.H {
		if !r.Valid[i] {
			continue
		}
		if a := cmplx.Abs(h); a > mag {
			mag, freqHz, ok = a, r.Freqs[i], true
		}
	}
	if !ok {
		return 0, 0, false
	}
	return mag, freqHz, true
}

// WriteCSV emits "freq_hz,mag,mag_db,phase_deg,valid" rows.
func (r *Response) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "freq_hz,mag,mag_db,phase_deg,valid"); err != nil {
		return err
	}
	mag, db, ph := r.Mag(), r.MagDb(), r.PhaseDeg()
	for i := range r.Freqs {
		if _, err := fmt.Fprintf(w, "%.9g,%.9g,%.6g,%.6g,%t\n",
			r.Freqs[i], mag[i], db[i], ph[i], r.Valid[i]); err != nil {
			return err
		}
	}
	return nil
}

// Sweep drives the circuit's input with a unit AC source and samples the
// transfer function to the output node over the spec's grid. Singular
// points are recorded as invalid rather than failing the whole sweep (a
// test configuration can be unusable at isolated frequencies). One-shot
// callers get a throwaway Engine; repeated sweeps of the same
// configuration should build an Engine once and call its SweepGrid.
func Sweep(ckt *circuit.Circuit, spec SweepSpec) (*Response, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	e, err := NewEngine(ckt)
	if err != nil {
		return nil, err
	}
	return e.SweepGrid(spec.Grid())
}

// SweepOnGrid is Sweep over an explicit frequency grid.
func SweepOnGrid(ckt *circuit.Circuit, grid []float64) (*Response, error) {
	e, err := NewEngine(ckt)
	if err != nil {
		return nil, err
	}
	return e.SweepGrid(grid)
}

// singularJitter is the deterministic schedule of relative frequency
// offsets used to re-solve singular grid points: a system that is singular
// only at an exact pole/zero cancellation solves a fraction of a ppm away,
// and the detectability measure cannot resolve such a displacement. The
// schedule is fixed (no randomness) so retried results are identical
// across runs and worker counts.
var singularJitter = []float64{1e-7, -1e-7, 3e-6, -3e-6, 1e-4}

// MaxSingularRetries is the largest useful attempts value for
// RetrySingularPoints (the length of the jitter schedule).
const MaxSingularRetries = 5

// RetrySingularPoints re-attempts the invalid points of resp, in place, at
// deterministically jittered frequencies — up to attempts offsets per
// point, clamped to MaxSingularRetries. ckt must be the (undriven) circuit
// that produced resp. It returns the number of points recovered and the
// number of extra solves performed. Failures other than a singular system
// abort the retry. Callers that already hold an Engine for the
// configuration should use Engine.RetrySingularPoints directly and skip
// the rebuild this wrapper pays.
func RetrySingularPoints(ckt *circuit.Circuit, resp *Response, attempts int) (recovered, solves int, err error) {
	if attempts <= 0 || resp.InvalidCount() == 0 {
		return 0, 0, nil
	}
	e, err := NewEngine(ckt)
	if err != nil {
		return 0, 0, err
	}
	return e.RetrySingularPoints(resp, attempts)
}

// Region is a frequency interval [LoHz, HiHz].
type Region struct {
	LoHz, HiHz float64
}

// Validate checks the region.
func (r Region) Validate() error {
	if r.LoHz <= 0 || r.HiHz <= r.LoHz {
		return fmt.Errorf("%w: region [%g, %g]", ErrBadSweep, r.LoHz, r.HiHz)
	}
	return nil
}

// Decades returns the width of the region in decades.
func (r Region) Decades() float64 { return numeric.Decades(r.LoHz, r.HiHz) }

// Contains reports whether f lies in the region (inclusive).
func (r Region) Contains(f float64) bool { return f >= r.LoHz && f <= r.HiHz }

// Spec converts the region into a sweep with the given number of points.
func (r Region) Spec(points int) SweepSpec {
	return SweepSpec{StartHz: r.LoHz, StopHz: r.HiHz, Points: points}
}

// String implements fmt.Stringer.
func (r Region) String() string {
	return fmt.Sprintf("[%.4g Hz, %.4g Hz]", r.LoHz, r.HiHz)
}

// CornerFrequencies returns the outermost −3 dB crossings of a response
// relative to its peak: lo is the lowest frequency at which the magnitude
// is within 3 dB of the peak, hi the highest. ok is false when the
// response has no valid peak.
func CornerFrequencies(r *Response) (lo, hi float64, ok bool) {
	peak, _, ok := r.PeakMag()
	if !ok || peak == 0 {
		return 0, 0, false
	}
	threshold := peak / math.Sqrt2
	lo, hi = math.Inf(1), math.Inf(-1)
	for i, h := range r.H {
		if !r.Valid[i] {
			continue
		}
		if cmplx.Abs(h) >= threshold {
			if r.Freqs[i] < lo {
				lo = r.Freqs[i]
			}
			if r.Freqs[i] > hi {
				hi = r.Freqs[i]
			}
		}
	}
	if math.IsInf(lo, 1) {
		return 0, 0, false
	}
	return lo, hi, true
}

// ReferenceRegion constructs Ω_reference for a circuit per §2 of the paper:
// the region is centred on the circuit's passband and spans two decades
// into the stopband on each side — "about two orders of magnitude in the
// passband and two orders of magnitude in the stopband". Concretely, with
// passband edges [fl, fh] (the −3 dB corners of the nominal response found
// with a wide probe sweep):
//
//	Ω_reference = [fl/100, fh·100]
//
// clipped to the probe range. For a lowpass (passband touching the probe's
// low edge) this degenerates to [fh/100, fh·100]: two decades of passband
// plus two decades of stopband, as in the paper.
func ReferenceRegion(ckt *circuit.Circuit, probe SweepSpec) (Region, error) {
	if probe.Points == 0 {
		probe = DefaultProbe
	}
	resp, err := Sweep(ckt, probe)
	if err != nil {
		return Region{}, err
	}
	fl, fh, ok := CornerFrequencies(resp)
	if !ok {
		return Region{}, fmt.Errorf("analysis: circuit %q has no measurable passband", ckt.Name)
	}
	lo := fl / 100
	hi := fh * 100
	// A passband that touches the probe edge means the true corner is
	// outside the probe; treat the opposite corner as the anchor.
	const edgeSlack = 1.01
	if fl <= probe.StartHz*edgeSlack {
		lo = fh / 100
	}
	if fh >= probe.StopHz/edgeSlack {
		hi = fl * 100
	}
	if lo < probe.StartHz {
		lo = probe.StartHz
	}
	if hi > probe.StopHz {
		hi = probe.StopHz
	}
	if hi <= lo {
		// The passband spans the whole probe: an all-pass-like or notch
		// response with no outer corners. Anchor on the deepest in-band
		// feature (the notch) when one exists, else measure the whole
		// probe (a genuinely flat response is observable everywhere).
		peak, _, _ := resp.PeakMag()
		minMag, minFreq := math.Inf(1), 0.0
		for i, h := range resp.H {
			if !resp.Valid[i] {
				continue
			}
			if a := cmplx.Abs(h); a < minMag {
				minMag, minFreq = a, resp.Freqs[i]
			}
		}
		if minFreq > 0 && minMag < peak/math.Sqrt2 {
			lo, hi = minFreq/100, minFreq*100
			if lo < probe.StartHz {
				lo = probe.StartHz
			}
			if hi > probe.StopHz {
				hi = probe.StopHz
			}
		} else {
			lo, hi = probe.StartHz, probe.StopHz
		}
	}
	if hi <= lo {
		return Region{}, fmt.Errorf("analysis: degenerate reference region for %q", ckt.Name)
	}
	return Region{LoHz: lo, HiHz: hi}, nil
}

// DeviationProfile is the pointwise relative deviation |ΔT/T| between a
// faulty and a nominal response on a shared grid, as used by Definition 1
// of the paper.
type DeviationProfile struct {
	Freqs []float64
	// Rel[i] = | |Hf| − |Hn| | / |Hn| at Freqs[i]; +Inf when exactly one of
	// the responses is unmeasurable at that point, 0 when both are.
	Rel []float64
}

// RelativeDeviation computes the deviation profile of faulty vs nominal.
// The two responses must share a frequency grid.
//
// measFloor is the smallest nominal magnitude considered measurable,
// expressed as a fraction of the nominal peak (e.g. 1e-4 ≈ −80 dB). Points
// where both responses are below the floor contribute zero deviation: a
// tester cannot resolve changes under its measurement floor. Pass 0 to
// disable the floor. Each point is scored by PointDeviation.
func RelativeDeviation(nominal, faulty *Response, measFloor float64) (*DeviationProfile, error) {
	if err := SameGrid(nominal, faulty); err != nil {
		return nil, err
	}
	floorAbs := FloorAbs(nominal, measFloor)
	p := &DeviationProfile{
		Freqs: append([]float64(nil), nominal.Freqs...),
		Rel:   make([]float64, nominal.Len()),
	}
	for i := range nominal.Freqs {
		p.Rel[i], _, _ = PointDeviation(nominal.H[i], faulty.H[i], nominal.Valid[i], faulty.Valid[i], floorAbs)
	}
	return p, nil
}

// SameGrid returns an ErrBadSweep error unless a and b sample the same
// frequency grid, the precondition of every deviation between them.
func SameGrid(a, b *Response) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("%w: grids differ (%d vs %d points)", ErrBadSweep, a.Len(), b.Len())
	}
	for i := range a.Freqs {
		if a.Freqs[i] != b.Freqs[i] {
			return fmt.Errorf("%w: grids differ at point %d", ErrBadSweep, i)
		}
	}
	return nil
}

// PointDeviation is Definition 1's rule at one grid point: the relative
// deviation rel = ||Hf| − |Hn|| / den of a faulty response value hf from
// the nominal hn, with den = max(|Hn|, floorAbs) (floorAbs as FloorAbs
// returns it). rel is 0 where both responses are unmeasurable or both
// magnitudes sit at or below the floor, and +Inf where exactly one
// response is unmeasurable (nOK, fOK report validity) or den is 0. It
// also returns |Hf| and den, the scale of any error in rel; both are NaN
// where either response is unmeasurable.
func PointDeviation(hn, hf complex128, nOK, fOK bool, floorAbs float64) (rel, mf, den float64) {
	var mn float64
	if nOK && fOK {
		mn = cmplx.Abs(hn)
	}
	return MagDeviation(mn, hf, nOK, fOK, floorAbs)
}

// MagDeviation is PointDeviation given the nominal's magnitude mn = |hn|
// rather than hn, for a caller that scores many answers against one
// nominal; mn is read only where both responses are measurable.
func MagDeviation(mn float64, hf complex128, nOK, fOK bool, floorAbs float64) (rel, mf, den float64) {
	if !nOK || !fOK {
		if nOK != fOK {
			rel = math.Inf(1)
		}
		return rel, math.NaN(), math.NaN()
	}
	mf = cmplx.Abs(hf)
	den = max(mn, floorAbs)
	switch {
	case mn <= floorAbs && mf <= floorAbs:
		rel = 0
	case den == 0:
		rel = math.Inf(1)
	default:
		rel = math.Abs(mf-mn) / den
	}
	return rel, mf, den
}

// FloorAbs returns the absolute measurement floor RelativeDeviation
// applies: measFloor times the nominal's peak magnitude, or 0 when the
// nominal has no valid point or measFloor is not positive.
func FloorAbs(nominal *Response, measFloor float64) float64 {
	if peak, _, ok := nominal.PeakMag(); ok && measFloor > 0 {
		return peak * measFloor
	}
	return 0
}

// ExceedsAt returns the indices where the deviation exceeds tolerance eps.
func (p *DeviationProfile) ExceedsAt(eps float64) []int {
	var out []int
	for i, r := range p.Rel {
		if r > eps {
			out = append(out, i)
		}
	}
	return out
}

// MaxRel returns the largest relative deviation in the profile (0 for an
// empty profile).
func (p *DeviationProfile) MaxRel() float64 {
	max := 0.0
	for _, r := range p.Rel {
		if r > max {
			max = r
		}
	}
	return max
}

// mathSqrt is math.Sqrt, aliased here so noise.go stays self-contained.
func mathSqrt(v float64) float64 { return math.Sqrt(v) }

// GroupDelay returns the group delay τg(ω) = −dφ/dω in seconds at each
// grid point, computed by central differences on the unwrapped phase of a
// response (forward/backward differences at the edges; NaN where the
// response is invalid).
func GroupDelay(r *Response) []float64 {
	out := make([]float64, r.Len())
	phase := make([]float64, r.Len())
	for i, h := range r.H {
		if !r.Valid[i] {
			phase[i] = math.NaN()
			continue
		}
		phase[i] = cmplx.Phase(h)
	}
	// Unwrap.
	for i := 1; i < len(phase); i++ {
		if math.IsNaN(phase[i]) || math.IsNaN(phase[i-1]) {
			continue
		}
		for phase[i]-phase[i-1] > math.Pi {
			phase[i] -= 2 * math.Pi
		}
		for phase[i]-phase[i-1] < -math.Pi {
			phase[i] += 2 * math.Pi
		}
	}
	dphi := func(i, j int) float64 {
		dw := 2 * math.Pi * (r.Freqs[j] - r.Freqs[i])
		if dw == 0 || math.IsNaN(phase[i]) || math.IsNaN(phase[j]) {
			return math.NaN()
		}
		return -(phase[j] - phase[i]) / dw
	}
	for i := range out {
		switch {
		case r.Len() < 2:
			out[i] = math.NaN()
		case i == 0:
			out[i] = dphi(0, 1)
		case i == r.Len()-1:
			out[i] = dphi(r.Len()-2, r.Len()-1)
		default:
			out[i] = dphi(i-1, i+1)
		}
	}
	return out
}
