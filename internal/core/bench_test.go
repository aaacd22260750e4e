package core

// Ablation benchmarks for the design choices called out in DESIGN.md §5.

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/orbit"
	"repro/internal/propagation"
)

func benchShellPopulation(b testing.TB, n int) []propagation.Satellite {
	b.Helper()
	rng := mathx.NewSplitMix64(13)
	sats := make([]propagation.Satellite, n)
	for i := range sats {
		el := orbit.Elements{
			SemiMajorAxis: rng.UniformRange(6900, 7400),
			Eccentricity:  rng.UniformRange(0, 0.01),
			Inclination:   rng.UniformRange(0, math.Pi),
			RAAN:          rng.UniformRange(0, mathx.TwoPi),
			ArgPerigee:    rng.UniformRange(0, mathx.TwoPi),
			MeanAnomaly:   rng.UniformRange(0, mathx.TwoPi),
		}
		sats[i] = propagation.MustSatellite(int32(i), el)
	}
	return sats
}

// Interval radius rule sensitivity: the paper's two-cell crossing rule vs a
// fixed-width interval. The adaptive rule keeps refinement intervals small
// for fast LEO objects while staying safe for slow high-altitude ones.
func BenchmarkRefine_TwoCellRule(b *testing.B) {
	a, c := benchMeetingPair()
	r := newRefiner(propagation.TwoBody{}, 2, 4000)
	prop := propagation.TwoBody{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		radius := intervalRadius(9.8, &a, &c, prop, 1000)
		_, _, _ = r.refine(&a, &c, 1000, radius)
	}
}

func BenchmarkRefine_FixedWide(b *testing.B) {
	a, c := benchMeetingPair()
	r := newRefiner(propagation.TwoBody{}, 2, 4000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _, _ = r.refine(&a, &c, 1000, 120)
	}
}

func benchMeetingPair() (propagation.Satellite, propagation.Satellite) {
	elA := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: 0.4}
	elB := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: 1.1}
	elA.MeanAnomaly = mathx.NormalizeAngle(-elA.MeanMotion() * 1000)
	elB.MeanAnomaly = mathx.NormalizeAngle(-elB.MeanMotion() * 1000)
	return propagation.MustSatellite(0, elA), propagation.MustSatellite(1, elB)
}
