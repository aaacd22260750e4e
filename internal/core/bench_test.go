package core

// Ablation benchmarks for the design choices called out in DESIGN.md §8.

import (
	"math"
	"testing"

	"repro/internal/lockfree"
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

// BenchmarkRefineRun refines one encounter's run of candidates: the steps
// around the meeting, as the grid flags them.
func BenchmarkRefineRun(b *testing.B) {
	a, c := benchMeetingPair()
	r := refineRunFor(propagation.TwoBody{}, []propagation.Satellite{a, c}, 1, 4000, 2)
	var keys []uint64
	for k := uint32(996); k <= 1004; k++ {
		keys = append(keys, lockfree.PackPair(0, 1, k))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.refineCandidates(keys); err != nil {
			b.Fatal(err)
		}
	}
}

func benchMeetingPair() (propagation.Satellite, propagation.Satellite) {
	elA := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: 0.4}
	elB := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: 1.1}
	elA.MeanAnomaly = mathx.NormalizeAngle(-elA.MeanMotion() * 1000)
	elB.MeanAnomaly = mathx.NormalizeAngle(-elB.MeanMotion() * 1000)
	return propagation.MustSatellite(0, elA), propagation.MustSatellite(1, elB)
}
