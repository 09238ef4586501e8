package detect

import (
	"context"
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"analogdft/internal/analysis"
	"analogdft/internal/dft"
)

// TestWoodburyErrorWithinBand measures the guard band against the error it
// must cover, over rank1Sweep's 61-point deviation and bipolar cases (the
// library benches and a six-opamp chain, fault sizes 0.10–0.30). For
// every configuration it walks the row through the functional basis
// (Woodbury corrections) and compares, point by point:
//
//   - the corrected nominal with the configuration's own factorization:
//     ||Hn| − |Hn_own||, against the nominal's bound nomErr;
//   - each rank-1 answer with the patch's solve: ||H| − |H_patch||
//     against the answer's own bound guardBand·(|H| + spread), and rel
//     (scored against the corrected nominal) against the patch's rel
//     (scored against the own nominal) with the band settle reports, at
//     every point settle takes as settled (the tail re-solves the rest).
//
// Every ratio must stay at or below 1e-3, which leaves three orders of
// margin under the band; and validity must agree everywhere: the
// corrected nominal is valid exactly where the configuration's own
// factorization is, and an answered point is never singular under the
// patch. The worst ratios are logged, as the evidence for guardBand and
// numeric.WoodburyPivotRatio.
func TestWoodburyErrorWithinBand(t *testing.T) {
	ctx := context.Background()
	var worstN, worstH, worstRel float64
	points, corrected, answers, settled, refactored, disagree := 0, 0, 0, 0, 0, 0
	for _, c := range rank1Sweep(t) {
		if c.opts.Points != 61 || strings.Contains(c.label, "/catastrophic/") {
			continue
		}
		opts := c.opts.Normalize()
		functional, err := c.m.Configure(dft.Configuration{Index: 0, N: c.m.N()})
		if err != nil {
			t.Fatal(err)
		}
		region, err := resolveRegion(functional, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		grid := region.Spec(opts.Points).Grid()
		b, err := analysis.NewBasis(functional, c.m.Chain, grid, c.faults)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if err := b.Fill(ctx, 0, 1); err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		slots := b.Slots()
		for _, cfg := range matrixConfigs(c.m, opts) {
			ckt, err := c.m.Configure(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var followers []int
			for a := range c.m.Chain {
				if cfg.Follower(a) {
					followers = append(followers, a)
				}
			}
			walkEng, err := analysis.NewEngine(ckt)
			if err != nil {
				t.Fatal(err)
			}
			walk := new(analysis.LowRankRow)
			if err := walkEng.SweepLowRank(ctx, b, followers, walk); err != nil {
				t.Fatalf("%s/%s: %v", c.label, cfg.Label(), err)
			}
			own, err := analysis.NewEngine(ckt)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := own.SweepGrid(grid)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.label, cfg.Label(), err)
			}
			refactored += walk.Factored
			tl := tail{
				rr:       &rowRunner{opts: opts},
				nominal:  walk.Nominal,
				mag:      make([]float64, len(grid)),
				approx:   walk.Approx,
				nspread:  walk.NominalSpread,
				floorAbs: analysis.FloorAbs(ref, opts.MeasFloor),
			}
			for i, h := range walk.Nominal.H {
				tl.mag[i] = cmplx.Abs(h)
			}
			for i := range grid {
				points++
				if walk.Nominal.Valid[i] != ref.Valid[i] {
					disagree++
					t.Errorf("%s/%s point %d: nominal valid %t, own factorization %t", c.label, cfg.Label(), i, walk.Nominal.Valid[i], ref.Valid[i])
					continue
				}
				if !ref.Valid[i] || walk.Approx == nil || !walk.Approx[i] {
					continue
				}
				corrected++
				worstN = max(worstN, math.Abs(tl.mag[i]-cmplx.Abs(ref.H[i]))/tl.nomErr(i))
			}
			np := len(grid)
			for j, f := range c.faults {
				s := slots[j]
				if s < 0 {
					continue
				}
				if err := own.ApplyFault(f); err != nil {
					t.Fatalf("%s/%s/%s: %v", c.label, cfg.Label(), f.ID, err)
				}
				patched, err := own.SweepGrid(grid)
				own.Reset()
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", c.label, cfg.Label(), f.ID, err)
				}
				resp, spread := &walk.Faulty[s], walk.Spread[s*np:(s+1)*np]
				for i, ok := range resp.Valid {
					if !ok || !ref.Valid[i] {
						continue // the tail re-solves it under the patch
					}
					if !patched.Valid[i] {
						disagree++
						t.Errorf("%s/%s/%s point %d: answered, singular under the patch", c.label, cfg.Label(), f.ID, i)
						continue
					}
					answers++
					h := resp.H[i]
					mf := cmplx.Abs(h)
					if af := guardBand * (mf + spread[i]); af > 0 {
						worstH = max(worstH, math.Abs(mf-cmplx.Abs(patched.H[i]))/af)
					}
					// An unsettled point is re-solved exactly.
					if rel, band, unsettled := tl.settle(i, h, spread[i], true); !unsettled {
						settled++
						want, _, _ := analysis.PointDeviation(ref.H[i], patched.H[i], true, true, tl.floorAbs)
						if d := math.Abs(rel - want); d > 0 {
							worstRel = max(worstRel, d/band)
						}
					}
				}
			}
		}
	}
	t.Logf("%d points (%d corrected nominals, %d own factorizations), %d rank-1 answers (%d settled): worst |Δ|Hn||/band %.3g, |Δ|H||/band %.3g, |Δrel|/band %.3g",
		points, corrected, refactored, answers, settled, worstN, worstH, worstRel)
	if corrected == 0 || answers == 0 {
		t.Fatal("the sweep measured nothing")
	}
	if disagree > 0 {
		t.Errorf("validity disagrees at %d points", disagree)
	}
	for _, w := range []struct {
		what  string
		ratio float64
	}{{"|Δ|Hn||", worstN}, {"|Δ|H||", worstH}, {"|Δrel|", worstRel}} {
		if !(w.ratio <= 1e-3) {
			t.Errorf("worst %s/band = %.3g, want ≤ 1e-3", w.what, w.ratio)
		}
	}
}
