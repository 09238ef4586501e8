package analysis

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"analogdft/internal/circuit"
	"analogdft/internal/mna"
	"analogdft/internal/numeric"
)

// rcLowpass returns an RC lowpass with corner fc ≈ 1.59 kHz.
func rcLowpass() *circuit.Circuit {
	c := circuit.New("rc")
	c.R("R1", "in", "out", 1e3)
	c.Cap("C1", "out", "0", 100e-9)
	c.Input, c.Output = "in", "out"
	return c
}

// rcHighpass returns a CR highpass with corner fc ≈ 1.59 kHz.
func rcHighpass() *circuit.Circuit {
	c := circuit.New("cr")
	c.Cap("C1", "in", "out", 100e-9)
	c.R("R1", "out", "0", 1e3)
	c.Input, c.Output = "in", "out"
	return c
}

const rcCorner = 1591.549430918953 // 1/(2π·1k·100n)

func TestSweepSpecValidate(t *testing.T) {
	bad := []SweepSpec{
		{StartHz: 0, StopHz: 10, Points: 5},
		{StartHz: 10, StopHz: 10, Points: 5},
		{StartHz: 10, StopHz: 5, Points: 5},
		{StartHz: 1, StopHz: 10, Points: 1},
	}
	for _, s := range bad {
		if err := s.Validate(); !errors.Is(err, ErrBadSweep) {
			t.Errorf("spec %+v: err = %v, want ErrBadSweep", s, err)
		}
	}
	if err := (SweepSpec{1, 10, 2}).Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}

func TestSweepRCLowpass(t *testing.T) {
	resp, err := Sweep(rcLowpass(), SweepSpec{StartHz: 1, StopHz: 1e7, Points: 141})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.AllValid() {
		t.Fatal("RC lowpass should solve everywhere")
	}
	mag := resp.Mag()
	if math.Abs(mag[0]-1) > 1e-4 {
		t.Errorf("passband magnitude = %g, want ≈1", mag[0])
	}
	if mag[len(mag)-1] > 1e-3 {
		t.Errorf("stopband magnitude = %g, want ≈0", mag[len(mag)-1])
	}
	// Analytic check at every grid point: |H| = 1/sqrt(1+(f/fc)^2).
	for i, f := range resp.Freqs {
		want := 1 / math.Sqrt(1+(f/rcCorner)*(f/rcCorner))
		if math.Abs(mag[i]-want) > 1e-6 {
			t.Fatalf("point %d (%g Hz): |H| = %g, want %g", i, f, mag[i], want)
		}
	}
}

func TestResponseDerivedViews(t *testing.T) {
	resp, err := Sweep(rcLowpass(), SweepSpec{StartHz: 10, StopHz: 1e6, Points: 51})
	if err != nil {
		t.Fatal(err)
	}
	db := resp.MagDb()
	ph := resp.PhaseDeg()
	if db[0] > 0 || db[0] < -0.1 {
		t.Errorf("passband dB = %g", db[0])
	}
	if ph[0] > 0 || ph[0] < -10 {
		t.Errorf("passband phase = %g", ph[0])
	}
	last := len(ph) - 1
	if ph[last] > -80 {
		t.Errorf("stopband phase = %g, want ≈ −90", ph[last])
	}
	peak, fpk, ok := resp.PeakMag()
	if !ok || peak > 1.0001 || fpk > 100 {
		t.Errorf("peak = %g at %g Hz", peak, fpk)
	}
}

func TestSweepOnGrid(t *testing.T) {
	grid := []float64{10, rcCorner, 1e6}
	resp, err := SweepOnGrid(rcLowpass(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Len() != 3 {
		t.Fatalf("len = %d", resp.Len())
	}
	if math.Abs(resp.Mag()[1]-1/math.Sqrt2) > 1e-6 {
		t.Fatalf("corner magnitude = %g", resp.Mag()[1])
	}
	if _, err := SweepOnGrid(rcLowpass(), nil); !errors.Is(err, ErrBadSweep) {
		t.Fatalf("empty grid err = %v", err)
	}
}

func TestSweepRecordsInvalidPoints(t *testing.T) {
	// Series capacitors: singular at the lowest frequencies of a grid that
	// includes near-DC? MNA is singular only exactly at ω=0, and log grids
	// exclude 0 — so instead check that a fully valid circuit reports valid.
	c := circuit.New("cc")
	c.Cap("C1", "in", "mid", 1e-9)
	c.Cap("C2", "mid", "0", 1e-9)
	c.Input, c.Output = "in", "mid"
	resp, err := Sweep(c, SweepSpec{StartHz: 1, StopHz: 1e3, Points: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.AllValid() {
		t.Fatal("capacitive divider is valid at every ω > 0")
	}
}

func TestWriteCSV(t *testing.T) {
	resp, err := Sweep(rcLowpass(), SweepSpec{StartHz: 10, StopHz: 1e3, Points: 3})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := resp.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV lines = %d, want 4", len(lines))
	}
	if !strings.HasPrefix(lines[0], "freq_hz,") {
		t.Fatalf("bad header %q", lines[0])
	}
}

func TestRegion(t *testing.T) {
	r := Region{LoHz: 10, HiHz: 1e5}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Decades()-4) > 1e-12 {
		t.Errorf("Decades = %g", r.Decades())
	}
	if !r.Contains(10) || !r.Contains(1e5) || r.Contains(9.99) || r.Contains(1.1e5) {
		t.Error("Contains boundaries wrong")
	}
	spec := r.Spec(100)
	if spec.StartHz != 10 || spec.StopHz != 1e5 || spec.Points != 100 {
		t.Errorf("Spec = %+v", spec)
	}
	if (Region{LoHz: -1, HiHz: 5}).Validate() == nil {
		t.Error("negative region accepted")
	}
	if s := r.String(); !strings.Contains(s, "Hz") {
		t.Errorf("String = %q", s)
	}
}

func TestCornerFrequenciesLowpass(t *testing.T) {
	resp, err := Sweep(rcLowpass(), SweepSpec{StartHz: 0.1, StopHz: 1e7, Points: 321})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, ok := CornerFrequencies(resp)
	if !ok {
		t.Fatal("no corners found")
	}
	if lo > 0.2 {
		t.Errorf("lowpass low corner = %g, want probe edge", lo)
	}
	if math.Abs(math.Log10(hi/rcCorner)) > 0.05 {
		t.Errorf("high corner = %g, want ≈%g", hi, rcCorner)
	}
}

func TestReferenceRegionLowpass(t *testing.T) {
	reg, err := ReferenceRegion(rcLowpass(), SweepSpec{})
	if err != nil {
		t.Fatal(err)
	}
	// Expect ≈ [fc/100, fc·100]: four decades centred on the corner.
	if math.Abs(math.Log10(reg.LoHz/(rcCorner/100))) > 0.1 {
		t.Errorf("reference low edge = %g, want ≈%g", reg.LoHz, rcCorner/100)
	}
	if math.Abs(math.Log10(reg.HiHz/(rcCorner*100))) > 0.1 {
		t.Errorf("reference high edge = %g, want ≈%g", reg.HiHz, rcCorner*100)
	}
	if d := reg.Decades(); d < 3.5 || d > 4.5 {
		t.Errorf("reference width = %g decades, want ≈4", d)
	}
}

func TestReferenceRegionHighpass(t *testing.T) {
	reg, err := ReferenceRegion(rcHighpass(), SweepSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(math.Log10(reg.LoHz/(rcCorner/100))) > 0.1 {
		t.Errorf("low edge = %g, want ≈%g", reg.LoHz, rcCorner/100)
	}
	if d := reg.Decades(); d < 3.5 || d > 4.5 {
		t.Errorf("width = %g decades, want ≈4", d)
	}
}

func TestRelativeDeviationZeroForIdentical(t *testing.T) {
	resp, err := Sweep(rcLowpass(), SweepSpec{StartHz: 10, StopHz: 1e5, Points: 21})
	if err != nil {
		t.Fatal(err)
	}
	p, err := RelativeDeviation(resp, resp, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxRel() != 0 {
		t.Fatalf("self deviation = %g, want 0", p.MaxRel())
	}
	if got := p.ExceedsAt(0.1); len(got) != 0 {
		t.Fatalf("ExceedsAt = %v, want none", got)
	}
}

func TestRelativeDeviationDetectsShiftedCorner(t *testing.T) {
	nom, err := Sweep(rcLowpass(), SweepSpec{StartHz: 10, StopHz: 1e6, Points: 61})
	if err != nil {
		t.Fatal(err)
	}
	faultyCkt := rcLowpass()
	v, _ := faultyCkt.Valued("R1")
	v.SetValue(v.Value() * 1.2) // +20% deviation fault
	fau, err := Sweep(faultyCkt, SweepSpec{StartHz: 10, StopHz: 1e6, Points: 61})
	if err != nil {
		t.Fatal(err)
	}
	p, err := RelativeDeviation(nom, fau, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	// Around/above the corner a 20% R shift moves |H| by more than 10%.
	if p.MaxRel() < 0.1 {
		t.Fatalf("max deviation = %g, want > 0.1", p.MaxRel())
	}
	// In the deep passband the deviation is tiny.
	if p.Rel[0] > 0.01 {
		t.Fatalf("passband deviation = %g, want ≈0", p.Rel[0])
	}
	// Detectable indices must be sorted and in range.
	idx := p.ExceedsAt(0.1)
	if len(idx) == 0 {
		t.Fatal("no detectable points for a 20% R fault")
	}
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			t.Fatal("ExceedsAt not ascending")
		}
	}
}

func TestRelativeDeviationGridMismatch(t *testing.T) {
	a, _ := Sweep(rcLowpass(), SweepSpec{StartHz: 10, StopHz: 1e5, Points: 5})
	b, _ := Sweep(rcLowpass(), SweepSpec{StartHz: 10, StopHz: 1e5, Points: 7})
	if _, err := RelativeDeviation(a, b, 0); !errors.Is(err, ErrBadSweep) {
		t.Fatalf("err = %v, want ErrBadSweep", err)
	}
	c, _ := Sweep(rcLowpass(), SweepSpec{StartHz: 20, StopHz: 2e5, Points: 5})
	if _, err := RelativeDeviation(a, c, 0); !errors.Is(err, ErrBadSweep) {
		t.Fatalf("shifted grid err = %v, want ErrBadSweep", err)
	}
}

func TestRelativeDeviationValidityRules(t *testing.T) {
	mk := func(valid ...bool) *Response {
		r := &Response{}
		for i, v := range valid {
			r.Freqs = append(r.Freqs, float64(i+1))
			r.H = append(r.H, 1)
			r.Valid = append(r.Valid, v)
		}
		return r
	}
	nom := mk(true, false, false)
	fau := mk(true, true, false)
	p, err := RelativeDeviation(nom, fau, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rel[0] != 0 {
		t.Errorf("both valid identical: %g", p.Rel[0])
	}
	if !math.IsInf(p.Rel[1], 1) {
		t.Errorf("one invalid: %g, want +Inf", p.Rel[1])
	}
	if p.Rel[2] != 0 {
		t.Errorf("both invalid: %g, want 0", p.Rel[2])
	}
}

// TestPointDeviationScale pins the error scale PointDeviation returns
// beside rel: |Hf| and den = max(|Hn|, floor) at a measurable point, NaN
// wherever either response is unmeasurable, so no band built on them can
// settle such a point.
func TestPointDeviationScale(t *testing.T) {
	cases := []struct {
		hn, hf        complex128
		nOK, fOK      bool
		floor         float64
		rel, mf, den  float64
		nanMf, infRel bool
	}{
		{hn: 3 + 4i, hf: 6 + 8i, nOK: true, fOK: true, floor: 1, rel: 1, mf: 10, den: 5},
		{hn: 0.5, hf: 2, nOK: true, fOK: true, floor: 1, rel: 1.5, mf: 2, den: 1},
		{hn: 0.5, hf: 0.75, nOK: true, fOK: true, floor: 1, rel: 0, mf: 0.75, den: 1},
		{hn: 0, hf: 1, nOK: true, fOK: true, floor: 0, mf: 1, den: 0, infRel: true},
		{hn: 1, hf: 1, nOK: true, fOK: false, nanMf: true, infRel: true},
		{hn: 1, hf: 1, nOK: false, fOK: false, rel: 0, nanMf: true},
	}
	for k, c := range cases {
		rel, mf, den := PointDeviation(c.hn, c.hf, c.nOK, c.fOK, c.floor)
		if c.infRel != math.IsInf(rel, 1) || !c.infRel && rel != c.rel {
			t.Errorf("case %d: rel = %g", k, rel)
		}
		if c.nanMf {
			if !math.IsNaN(mf) || !math.IsNaN(den) {
				t.Errorf("case %d: unmeasurable point has mf %g, den %g; want NaN", k, mf, den)
			}
		} else if mf != c.mf || den != c.den {
			t.Errorf("case %d: mf %g, den %g; want %g, %g", k, mf, den, c.mf, c.den)
		}
	}
}

func TestMeasurementFloorSuppressesStopband(t *testing.T) {
	// A fault that only changes the deep stopband must be invisible when
	// the deviation falls under the measurement floor.
	nom := &Response{
		Freqs: []float64{1, 2},
		H:     []complex128{1, 1e-9},
		Valid: []bool{true, true},
	}
	fau := &Response{
		Freqs: []float64{1, 2},
		H:     []complex128{1, 2e-9}, // 100% relative change, far below floor
		Valid: []bool{true, true},
	}
	p, err := RelativeDeviation(nom, fau, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rel[1] != 0 {
		t.Fatalf("sub-floor deviation = %g, want 0", p.Rel[1])
	}
	// With the floor disabled the same point is wildly deviating.
	p, err = RelativeDeviation(nom, fau, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rel[1] < 0.9 {
		t.Fatalf("unfloored deviation = %g, want ≈1", p.Rel[1])
	}
}

func TestSweepErrors(t *testing.T) {
	if _, err := Sweep(rcLowpass(), SweepSpec{StartHz: -1, StopHz: 1, Points: 5}); err == nil {
		t.Fatal("bad spec accepted")
	}
	noIn := circuit.New("x")
	noIn.R("R1", "a", "0", 1)
	if _, err := Sweep(noIn, SweepSpec{StartHz: 1, StopHz: 10, Points: 3}); err == nil {
		t.Fatal("missing input accepted")
	}
}

func TestReferenceRegionNotch(t *testing.T) {
	// Buffered twin-T notch at 1 kHz: no outer corners — the region must
	// anchor on the notch.
	c := circuit.New("notch")
	cv := 1e-9
	r := 1 / (2 * math.Pi * 1e3 * cv)
	c.Cap("C1", "in", "x", cv)
	c.Cap("C2", "x", "mid", cv)
	c.R("R3", "x", "0", r/2)
	c.R("R1", "in", "y", r)
	c.R("R2", "y", "mid", r)
	c.Cap("C3", "y", "0", 2*cv)
	c.OA("OP1", "mid", "out", "out")
	c.Input, c.Output = "in", "out"
	reg, err := ReferenceRegion(c, SweepSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Contains(1e3) {
		t.Fatalf("region %v misses the notch", reg)
	}
	if d := reg.Decades(); d < 3 || d > 5 {
		t.Fatalf("region width = %g decades", d)
	}
}

func TestReferenceRegionFlat(t *testing.T) {
	// A purely resistive divider is flat: the region falls back to the
	// whole probe.
	c := circuit.New("flat")
	c.R("R1", "in", "out", 1e3)
	c.R("R2", "out", "0", 1e3)
	c.Input, c.Output = "in", "out"
	probe := SweepSpec{StartHz: 1, StopHz: 1e6, Points: 61}
	reg, err := ReferenceRegion(c, probe)
	if err != nil {
		t.Fatal(err)
	}
	if reg.LoHz != probe.StartHz || reg.HiHz != probe.StopHz {
		t.Fatalf("flat region = %v, want the probe bounds", reg)
	}
}

func TestResponseValidCounts(t *testing.T) {
	r := &Response{
		Freqs: []float64{1, 2, 3, 4},
		H:     make([]complex128, 4),
		Valid: []bool{true, false, true, false},
	}
	if r.ValidCount() != 2 || r.InvalidCount() != 2 {
		t.Fatalf("valid/invalid = %d/%d, want 2/2", r.ValidCount(), r.InvalidCount())
	}
	if r.AllValid() {
		t.Fatal("AllValid true with invalid points")
	}
	r.Valid = []bool{true, true, true, true}
	if !r.AllValid() || r.InvalidCount() != 0 {
		t.Fatal("AllValid false on a fully valid response")
	}
}

func TestClassifyError(t *testing.T) {
	cases := []struct {
		err  error
		want ErrorClass
	}{
		{nil, ClassNone},
		{numeric.ErrSingular, ClassSingular},
		{fmt.Errorf("wrap: %w", numeric.ErrSingular), ClassSingular},
		{mna.ErrUnsupported, ClassUnsupported},
		{circuit.ErrInvalid, ClassInvalid},
		{ErrBadSweep, ClassInvalid},
		{errors.New("anything else"), ClassOther},
	}
	for _, c := range cases {
		if got := ClassifyError(c.err); got != c.want {
			t.Errorf("ClassifyError(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	names := map[ErrorClass]string{
		ClassNone: "none", ClassSingular: "singular", ClassUnsupported: "unsupported",
		ClassInvalid: "invalid", ClassOther: "other",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

func TestRetrySingularPointsRecovers(t *testing.T) {
	spec := SweepSpec{StartHz: 100, StopHz: 1e4, Points: 11}
	resp, err := Sweep(rcLowpass(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// Manufacture two "singular" points on a healthy circuit: a ppm-scale
	// jitter must recover both with the correct magnitudes.
	truth := []complex128{resp.H[3], resp.H[7]}
	resp.Valid[3], resp.Valid[7] = false, false
	resp.H[3], resp.H[7] = 0, 0
	recovered, solves, err := RetrySingularPoints(rcLowpass(), resp, 3)
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 2 {
		t.Fatalf("recovered = %d, want 2", recovered)
	}
	if solves != 2 {
		t.Fatalf("solves = %d, want 2 (healthy points recover on the first offset)", solves)
	}
	if !resp.AllValid() {
		t.Fatal("response still has invalid points")
	}
	for k, i := range []int{3, 7} {
		if math.Abs(cmplx.Abs(resp.H[i])-cmplx.Abs(truth[k]))/cmplx.Abs(truth[k]) > 1e-4 {
			t.Fatalf("point %d recovered to %v, nominal %v", i, resp.H[i], truth[k])
		}
	}
}

func TestRetrySingularPointsNoOp(t *testing.T) {
	spec := SweepSpec{StartHz: 100, StopHz: 1e4, Points: 5}
	resp, err := Sweep(rcLowpass(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// Fully valid response: nothing to do regardless of attempts.
	if rec, solves, err := RetrySingularPoints(rcLowpass(), resp, 3); rec != 0 || solves != 0 || err != nil {
		t.Fatalf("valid response retried: %d/%d/%v", rec, solves, err)
	}
	// attempts <= 0 is an explicit no-op even with invalid points.
	resp.Valid[0] = false
	if rec, solves, err := RetrySingularPoints(rcLowpass(), resp, 0); rec != 0 || solves != 0 || err != nil {
		t.Fatalf("attempts=0 retried: %d/%d/%v", rec, solves, err)
	}
}

func TestRetrySingularPointsClampsAttempts(t *testing.T) {
	// An unsolvable circuit consumes the full (clamped) jitter schedule
	// per point and recovers nothing.
	c := circuit.New("conflict")
	c.V("V1", "x", "0", 1)
	c.R("R1", "in", "m", 1e3)
	c.R("R2", "m", "x", 1e3)
	c.OA("OP1", "0", "m", "x")
	c.Input, c.Output = "in", "x"
	resp, err := Sweep(c, SweepSpec{StartHz: 100, StopHz: 1e4, Points: 4})
	if err != nil {
		t.Fatal(err)
	}
	if resp.InvalidCount() != 4 {
		t.Fatalf("invalid = %d, want 4", resp.InvalidCount())
	}
	recovered, solves, err := RetrySingularPoints(c, resp, 100)
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 0 {
		t.Fatalf("recovered %d points of an unsolvable circuit", recovered)
	}
	if solves != 4*MaxSingularRetries {
		t.Fatalf("solves = %d, want %d (clamped schedule)", solves, 4*MaxSingularRetries)
	}
}
