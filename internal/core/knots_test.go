package core

// The build kernel's knots (positionAt, knotStride): the Hermite interpolant
// stays within its bound ε_i of the orbit, and the pad built from that bound
// is what keeps the grid complete.

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/mathx"
	"repro/internal/orbit"
	"repro/internal/pool"
	"repro/internal/population"
	"repro/internal/propagation"
)

// knotTestRow is one orbit class of the bound test.
type knotTestRow struct {
	name string
	sats []propagation.Satellite
}

// knotTestPopulations are the orbit classes the bound must hold on: the KDE
// shell, a debris cloud, the GEO belt, and LEO-perigee orbits of e = 0.3,
// 0.7 and 0.9 phased to pass perigee within the span.
func knotTestPopulations(t *testing.T, span float64) []knotTestRow {
	t.Helper()
	kde, err := population.Generate(population.Config{N: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	debris, err := population.Fragmentation(population.FragmentationConfig{
		Parent:        orbit.Elements{SemiMajorAxis: 7100, Eccentricity: 0.001, Inclination: 1.7, RAAN: 1, ArgPerigee: 0.5, MeanAnomaly: 0.3},
		TimeOfBreakup: -6000, N: 300, DeltaVKmS: 0.05, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []knotTestRow{{"kde-2k", kde}, {"debris-300", debris}}
	rng := mathx.NewSplitMix64(37)
	var geo []propagation.Satellite
	for i := range 50 {
		geo = append(geo, propagation.MustSatellite(int32(i), orbit.Elements{
			SemiMajorAxis: rng.UniformRange(42064, 42264), Eccentricity: rng.UniformRange(0, 0.001),
			Inclination: rng.UniformRange(0, 0.2), RAAN: rng.UniformRange(0, mathx.TwoPi),
			ArgPerigee: rng.UniformRange(0, mathx.TwoPi), MeanAnomaly: rng.UniformRange(0, mathx.TwoPi),
		}))
	}
	rows = append(rows, knotTestRow{"geo", geo})
	for _, e := range []float64{0.3, 0.7, 0.9} {
		var sats []propagation.Satellite
		for i := range 20 {
			el := orbit.Elements{
				SemiMajorAxis: rng.UniformRange(6700, 7200) / (1 - e), Eccentricity: e,
				Inclination: rng.UniformRange(0.1, 3), RAAN: rng.UniformRange(0, mathx.TwoPi), ArgPerigee: rng.UniformRange(0, mathx.TwoPi),
			}
			el.MeanAnomaly = mathx.NormalizeAngle(-el.MeanMotion() * span * rng.UniformRange(0.3, 0.7))
			sats = append(sats, propagation.MustSatellite(int32(i), el))
		}
		rows = append(rows, knotTestRow{fmt.Sprintf("e=%g", e), sats})
	}
	return rows
}

func TestKnotInterpolantWithinBound(t *testing.T) {
	// Every 0.125 s sample the build kernel interpolates, against TwoBody.State,
	// at the knot spacing the detectors use and at h = 1 s, where the bound is
	// nearly all the floor for solver error and rounding. No position between
	// knots is solved instead (noKnotPad), so each is the interpolant's.
	const sps, span = 0.125, 40.0
	for _, row := range knotTestPopulations(t, span) {
		name, sats := row.name, row.sats
		for _, h := range []float64{1, knotSeconds} {
			cfg := Config{DurationSeconds: span, SecondsPerSample: sps, Workers: 1, Pool: pool.New()}
			cfg.ablation.noKnotPad = true
			r, err := newRun(context.Background(), cfg, sats, sps, h, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.stride != int(h/sps) || r.stride < 2 {
				t.Fatalf("%s, h = %g s: stride %d, want ⌊h/s_ps⌋ = %d", name, h, r.stride, int(h/sps))
			}
			worst := 0.0
			for step := 0; step < r.steps; step++ {
				for i := range sats {
					s := &sats[i]
					pos, _, _ := r.positionAt(i, step)
					want, _ := propagation.TwoBody{}.State(s, float64(step)*sps)
					eps, _ := knotBound(propagation.TwoBody{}, s, float64(r.stride)*sps)
					if d := pos.Dist(want); d > eps {
						t.Fatalf("%s, h = %g s, object %d (e = %.3g) at %.1f s: %.3g km off the orbit, bound %.3g km",
							name, h, i, s.Elements.Eccentricity, float64(step)*sps, d, eps)
					} else {
						worst = max(worst, d/eps)
					}
				}
			}
			r.release()
			t.Logf("%s, h = %g s: worst error/bound %.3f", name, h, worst)
		}
	}

	// J2's State returns the conic's velocity, not the curve's (gateBounds),
	// so its knots would carry the wrong tangents: it solves every step.
	sats := knotTestPopulations(t, span)[1].sats // the debris cloud
	r, err := newRun(context.Background(), Config{DurationSeconds: span, Propagator: propagation.J2{}, Pool: pool.New()}, sats, 1, knotSeconds, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.release()
	if r.stride != 1 || r.stats.KnotStride != 1 || r.stats.PositionPadKm != 0 {
		t.Fatalf("J2: stride %d (stats %d), pad %g km; want every step solved, no pad", r.stride, r.stats.KnotStride, r.stats.PositionPadKm)
	}
}

func TestKnotPadIsLoadBearing(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle sweep is seconds-long; skipped with -short")
	}
	// The oracle shell, screened with knots 512 s apart (ε_max a few
	// kilometres) and 2,048 s apart, one interval over the whole 2,000 s
	// (hundreds of kilometres). Padded, the grid finds every oracle encounter
	// at both.
	sats, oracle := shellOracle(t)
	screen := func(h float64, noPad bool) (missed [][2]int32) {
		cfg := Config{ThresholdKm: oracleThreshold, SecondsPerSample: 1, DurationSeconds: oracleSpan, Workers: 2}
		cfg.ablation.noKnotPad = noPad
		det := newGrid(cfg)
		det.knotSeconds = h
		res, err := det.Screen(sats)
		if err != nil {
			t.Fatal(err)
		}
		if st := res.Stats; st.KnotStride != int(h) || (st.PositionPadKm > 0) == noPad {
			t.Fatalf("h = %g s, noPad %v: stride %d, pad %g km", h, noPad, st.KnotStride, st.PositionPadKm)
		}
		events := res.Events(10)
		for _, oe := range oracle {
			if _, ok := oe.match(events); !ok {
				missed = append(missed, [2]int32{oe.a, oe.b})
			}
		}
		return missed
	}
	for _, h := range []float64{512, 2048} {
		if missed := screen(h, false); len(missed) > 0 {
			t.Errorf("h = %g s with the pad: missed oracle pairs %v", h, missed)
		}
	}
	// Unpadded, interpolated radii reach the gate as if exact, and positions
	// near a cell face the grid. At 2,048 s the interpolant is hundreds of
	// kilometres inside the orbit around t = 790 s, by an amount that falls with
	// the radius; so engineered pair (28, 29), 36.4 km apart at t = 790 s
	// across a radial offset, has radii further apart than the gate's radial
	// test allows at every step it meets, and is lost (with the gate off too,
	// the unpadded grid finds it).
	if missed := screen(2048, true); !slices.Contains(missed, [2]int32{28, 29}) {
		t.Errorf("h = 2048 s without the pad: missed %v, want pair (28, 29) among them", missed)
	}
}
