package legacy

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/orbit"
	"repro/internal/propagation"
)

// screen runs the registered legacy detector.
func screen(t *testing.T, cfg core.Config, sats []propagation.Satellite) *core.Result {
	t.Helper()
	desc, ok := core.Lookup(core.VariantLegacy)
	if !ok {
		t.Fatal("legacy is not registered")
	}
	res, err := desc.New(cfg).ScreenContext(context.Background(), sats)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func meetingPair(idA, idB int32, tMeet, incB, radialOffsetKm float64) (propagation.Satellite, propagation.Satellite) {
	elA := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: 0.4}
	elB := orbit.Elements{SemiMajorAxis: 7000 + radialOffsetKm, Eccentricity: 0.0005, Inclination: incB}
	elA.MeanAnomaly = mathx.NormalizeAngle(-elA.MeanMotion() * tMeet)
	elB.MeanAnomaly = mathx.NormalizeAngle(-elB.MeanMotion() * tMeet)
	return propagation.MustSatellite(idA, elA), propagation.MustSatellite(idB, elB)
}

func TestLegacyDetectsEngineeredConjunction(t *testing.T) {
	a, b := meetingPair(0, 1, 1000, 1.1, 0)
	res := screen(t, core.Config{ThresholdKm: 2, DurationSeconds: 2000}, []propagation.Satellite{a, b})
	if len(res.Conjunctions) != 1 {
		t.Fatalf("conjunctions = %+v, want exactly 1", res.Conjunctions)
	}
	c := res.Conjunctions[0]
	if math.Abs(c.TCA-1000) > 2 {
		t.Errorf("TCA = %v, want ≈1000", c.TCA)
	}
	if c.PCA > 0.5 {
		t.Errorf("PCA = %v, want ≈0", c.PCA)
	}
	if res.Stats.FilterStats.Pairs != 1 {
		t.Errorf("Pairs = %d", res.Stats.FilterStats.Pairs)
	}
	if res.UniquePairs() != 1 {
		t.Errorf("UniquePairs = %d", res.UniquePairs())
	}
}

func TestLegacyRejectsDisjointShells(t *testing.T) {
	a := propagation.MustSatellite(0, orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.001, Inclination: 0.4})
	b := propagation.MustSatellite(1, orbit.Elements{SemiMajorAxis: 7500, Eccentricity: 0.001, Inclination: 1.0})
	res := screen(t, core.Config{ThresholdKm: 2, DurationSeconds: 2000}, []propagation.Satellite{a, b})
	if len(res.Conjunctions) != 0 {
		t.Errorf("conjunctions = %+v, want none", res.Conjunctions)
	}
	if res.Stats.FilterStats.ApogeePerigeeR != 1 {
		t.Errorf("apogee/perigee rejections = %d, want 1", res.Stats.FilterStats.ApogeePerigeeR)
	}
	if res.Stats.Refinements != 0 {
		t.Errorf("refinements = %d, want 0 (filtered before fine search)", res.Stats.Refinements)
	}
}

func TestLegacyCoplanarPairScansWholeSpan(t *testing.T) {
	// Coplanar co-orbiting satellites 1 km apart along-track: continuously
	// inside the threshold; the whole-span scan must report conjunction(s).
	el := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.0001, Inclination: 0.9}
	elB := el
	elB.MeanAnomaly = 1.0 / 7000.0 // ~1 km along-track phase offset
	a := propagation.MustSatellite(0, el)
	b := propagation.MustSatellite(1, elB)
	res := screen(t, core.Config{ThresholdKm: 2, DurationSeconds: 3000}, []propagation.Satellite{a, b})
	if res.Stats.FilterStats.CoplanarK != 1 {
		t.Errorf("coplanar pairs = %d, want 1", res.Stats.FilterStats.CoplanarK)
	}
	if len(res.Conjunctions) == 0 {
		t.Error("co-orbiting pair inside threshold produced no conjunction")
	}
}

func TestLegacyRequiresDuration(t *testing.T) {
	desc, _ := core.Lookup(core.VariantLegacy)
	if _, err := desc.New(core.Config{}).ScreenContext(context.Background(), nil); err != core.ErrNoDuration {
		t.Errorf("err = %v, want ErrNoDuration", err)
	}
}

func TestLegacyAntiPhasedPairClean(t *testing.T) {
	a, b := meetingPair(0, 1, 1000, 1.1, 0)
	// Push B half a revolution out of phase: they never meet.
	elB := b.Elements
	elB.MeanAnomaly = mathx.NormalizeAngle(elB.MeanAnomaly + math.Pi)
	b = propagation.MustSatellite(1, elB)
	res := screen(t, core.Config{ThresholdKm: 2, DurationSeconds: 2000}, []propagation.Satellite{a, b})
	if len(res.Conjunctions) != 0 {
		t.Errorf("anti-phased pair produced %+v", res.Conjunctions)
	}
}

func TestLegacyParallelMatchesSequential(t *testing.T) {
	var sats []propagation.Satellite
	a0, b0 := meetingPair(0, 1, 400, 1.2, 0.4)
	a1, b1 := meetingPair(2, 3, 900, 0.8, 1.2)
	sats = append(sats, a0, b0, a1, b1)
	rng := mathx.NewSplitMix64(9)
	for i := int32(4); i < 14; i++ {
		el := orbit.Elements{
			SemiMajorAxis: 7000 + rng.UniformRange(-30, 30),
			Eccentricity:  rng.UniformRange(0, 0.002),
			Inclination:   rng.UniformRange(0.1, 3),
			RAAN:          rng.UniformRange(0, mathx.TwoPi),
			ArgPerigee:    rng.UniformRange(0, mathx.TwoPi),
			MeanAnomaly:   rng.UniformRange(0, mathx.TwoPi),
		}
		sats = append(sats, propagation.MustSatellite(i, el))
	}
	seq := screen(t, core.Config{ThresholdKm: 2, DurationSeconds: 1500}, sats)
	for _, workers := range []int{2, 8} {
		par := screen(t, core.Config{ThresholdKm: 2, DurationSeconds: 1500, Workers: workers}, sats)
		if len(par.Conjunctions) != len(seq.Conjunctions) {
			t.Fatalf("workers=%d: %d conjunctions vs %d", workers, len(par.Conjunctions), len(seq.Conjunctions))
		}
		for i := range par.Conjunctions {
			if par.Conjunctions[i] != seq.Conjunctions[i] {
				t.Fatalf("workers=%d: conjunction %d differs", workers, i)
			}
		}
		if par.Stats.FilterStats.Pairs != seq.Stats.FilterStats.Pairs {
			t.Errorf("workers=%d: pairs %d vs %d", workers, par.Stats.FilterStats.Pairs, seq.Stats.FilterStats.Pairs)
		}
	}
}

// bruteForceEvents computes ground-truth conjunction events for a pair by
// dense time sampling — the oracle for the cross-variant agreement test.
func bruteForceEvents(a, b *propagation.Satellite, span, dt, threshold float64) []float64 {
	prop := propagation.TwoBody{}
	dist := func(t float64) float64 {
		pa, _ := prop.State(a, t)
		pb, _ := prop.State(b, t)
		return pa.Dist(pb)
	}
	var events []float64
	prev2, prev1 := dist(0), dist(dt)
	for t := 2 * dt; t <= span; t += dt {
		cur := dist(t)
		if prev1 <= prev2 && prev1 <= cur && prev1 <= threshold {
			events = append(events, t-dt)
		}
		prev2, prev1 = prev1, cur
	}
	return events
}

func TestLegacyMatchesBruteForce(t *testing.T) {
	// Mixed population: engineered encounters + background. Legacy must
	// find exactly the pairs the dense-sampling oracle finds.
	var sats []propagation.Satellite
	a0, b0 := meetingPair(0, 1, 400, 1.2, 0.4)
	a1, b1 := meetingPair(2, 3, 900, 0.8, 1.2)
	sats = append(sats, a0, b0, a1, b1)
	rng := mathx.NewSplitMix64(5)
	for i := int32(4); i < 10; i++ {
		el := orbit.Elements{
			SemiMajorAxis: 7300 + 80*float64(i),
			Eccentricity:  0.002,
			Inclination:   rng.UniformRange(0.1, 3.0),
			RAAN:          rng.UniformRange(0, mathx.TwoPi),
			ArgPerigee:    rng.UniformRange(0, mathx.TwoPi),
			MeanAnomaly:   rng.UniformRange(0, mathx.TwoPi),
		}
		sats = append(sats, propagation.MustSatellite(i, el))
	}
	const span = 1500.0
	res := screen(t, core.Config{ThresholdKm: 2, DurationSeconds: span}, sats)

	oracle := map[[2]int32][]float64{}
	for i := range sats {
		for j := i + 1; j < len(sats); j++ {
			if ev := bruteForceEvents(&sats[i], &sats[j], span, 0.25, 2); len(ev) > 0 {
				oracle[[2]int32{sats[i].ID, sats[j].ID}] = ev
			}
		}
	}
	got := map[[2]int32][]float64{}
	for _, c := range res.Conjunctions {
		got[[2]int32{c.A, c.B}] = append(got[[2]int32{c.A, c.B}], c.TCA)
	}

	for pair, times := range oracle {
		gt, ok := got[pair]
		if !ok {
			t.Errorf("legacy missed oracle pair %v (events at %v)", pair, times)
			continue
		}
		for _, want := range times {
			matched := false
			for _, have := range gt {
				if math.Abs(have-want) < 2 {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("pair %v: oracle event at %v not matched in %v", pair, want, gt)
			}
		}
	}
	for pair := range got {
		if _, ok := oracle[pair]; !ok {
			t.Errorf("legacy reported pair %v the oracle does not have", pair)
		}
	}
}
