package core

// Ablation benchmarks for the design choices called out in DESIGN.md §5.

import (
	"context"
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

// Grid hash slot factor: the paper's 2× versus a tight 1.25× and a roomy 4×.
// Probe lengths (and thus insertion cost) rise as the factor shrinks.
func BenchmarkGridSlotFactor_1_25(b *testing.B) { benchSlotFactor(b, 1.25) }
func BenchmarkGridSlotFactor_2(b *testing.B)    { benchSlotFactor(b, 2) }
func BenchmarkGridSlotFactor_4(b *testing.B)    { benchSlotFactor(b, 4) }

func benchSlotFactor(b *testing.B, factor float64) {
	sats := benchShellPopulation(b, 4000)
	var avgProbes float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		det := NewGrid(Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: 30, GridSlotFactor: factor})
		res, err := det.Screen(sats)
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
	// Probe statistics come from a dedicated single run (stable metric).
	run, err := newRun(context.Background(), Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: 1, GridSlotFactor: factor}, sats, 1, true, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := run.sampleAllSteps(); err != nil {
		b.Fatal(err)
	}
	st := run.gset.Stats()
	avgProbes = st.AvgProbes
	b.ReportMetric(avgProbes, "avg_probes")
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
