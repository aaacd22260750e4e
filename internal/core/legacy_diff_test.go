// The legacy all-on-all screener lives in internal/legacy, which imports
// core — so its differential comparison against the grid detector runs from
// an external test package, through the registry, to avoid the import cycle.
// It also cannot reach package-core test fixtures, so it builds its own
// deterministic population of crossing pairs from first principles.
package core_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	_ "repro/internal/legacy"
	"repro/internal/mathx"
	"repro/internal/orbit"
	"repro/internal/propagation"
)

// crossingPairsPopulation builds pairCount co-apsis satellite pairs in
// inclination-crossing orbits that meet at seeded times, with radial
// offsets alternating between clearly-below and clearly-above the 2 km
// screening threshold.
func crossingPairsPopulation(seed uint64, span float64, pairCount int) []propagation.Satellite {
	rng := mathx.NewSplitMix64(seed)
	sats := make([]propagation.Satellite, 0, 2*pairCount)
	for k := 0; k < pairCount; k++ {
		tMeet := rng.UniformRange(200, span-200)
		incA := rng.UniformRange(0.3, 1.1)
		incB := incA + rng.UniformRange(0.5, 1.3)
		offset := rng.UniformRange(0, 1.0)
		if k%2 == 1 {
			offset = rng.UniformRange(8, 30)
		}
		elA := orbit.Elements{SemiMajorAxis: 7100, Eccentricity: 0.0003, Inclination: incA,
			MeanAnomaly: mathx.NormalizeAngle(-orbit.Elements{SemiMajorAxis: 7100}.MeanMotion() * tMeet)}
		elB := orbit.Elements{SemiMajorAxis: 7100 + offset, Eccentricity: 0.0003, Inclination: incB,
			MeanAnomaly: mathx.NormalizeAngle(-orbit.Elements{SemiMajorAxis: 7100 + offset}.MeanMotion() * tMeet)}
		sats = append(sats,
			propagation.MustSatellite(int32(2*k), elA),
			propagation.MustSatellite(int32(2*k+1), elB))
	}
	return sats
}

// TestLegacyAgreesWithGrid differentially checks the O(n²) filter-chain
// baseline against the grid detector on the same seeded population. The two
// pipelines share no candidate-generation code — agreement here means both
// found the same physical encounters, with TCAs within one sampling step
// and PCAs within threshold slack.
func TestLegacyAgreesWithGrid(t *testing.T) {
	const (
		span      = 2400.0
		threshold = 2.0
		tcaTol    = 5.0
		pcaTol    = 0.2
	)
	sats := crossingPairsPopulation(7, span, 10)

	gridRes, err := screenGrid(core.Config{ThresholdKm: threshold, SecondsPerSample: 1, DurationSeconds: span, Workers: 2}, sats)
	if err != nil {
		t.Fatal(err)
	}
	gridEvents := gridRes.Events(10)
	if len(gridEvents) < 3 {
		t.Fatalf("grid found only %d events; population not dense enough", len(gridEvents))
	}

	for name, workers := range map[string]int{"single-threaded": 1, "parallel": 4} {
		t.Run(name, func(t *testing.T) {
			desc, _ := core.Lookup(core.VariantLegacy)
			legRes, err := desc.New(core.Config{ThresholdKm: threshold, DurationSeconds: span, Workers: workers}).ScreenContext(context.Background(), sats)
			if err != nil {
				t.Fatal(err)
			}
			legEvents := legRes.Events(10)

			check := func(from, to []core.Conjunction, label string) {
				for _, w := range from {
					matched := false
					for _, g := range to {
						if g.A == w.A && g.B == w.B && math.Abs(g.TCA-w.TCA) <= tcaTol {
							matched = true
							if math.Abs(g.PCA-w.PCA) > pcaTol {
								t.Errorf("pair (%d,%d): PCA %.4f vs %.4f", w.A, w.B, g.PCA, w.PCA)
							}
							break
						}
					}
					if !matched {
						t.Errorf("%s event: pair (%d,%d) tca=%.2f pca=%.4f", label, w.A, w.B, w.TCA, w.PCA)
					}
				}
			}
			check(gridEvents, legEvents, "legacy missing")
			check(legEvents, gridEvents, "legacy spurious")
		})
	}
}
