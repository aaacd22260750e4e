package satconj

import (
	"math"
	"strings"
	"testing"

	"repro/internal/mathx"
)

// crossingPair returns two satellites engineered to meet at tMeet seconds.
func crossingPair(t *testing.T, tMeet float64) []Satellite {
	t.Helper()
	elA := Elements{SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: 0.4}
	elB := Elements{SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: 1.1}
	elA.MeanAnomaly = mathx.NormalizeAngle(-elA.MeanMotion() * tMeet)
	elB.MeanAnomaly = mathx.NormalizeAngle(-elB.MeanMotion() * tMeet)
	a, err := NewSatellite(0, elA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSatellite(1, elB)
	if err != nil {
		t.Fatal(err)
	}
	return []Satellite{a, b}
}

func TestScreenAllVariantsFindEncounter(t *testing.T) {
	sats := crossingPair(t, 800)
	for _, v := range []Variant{VariantGrid, VariantHybrid, VariantLegacy, ""} {
		res, err := Screen(sats, Options{Variant: v, ThresholdKm: 2, DurationSeconds: 1600})
		if err != nil {
			t.Fatalf("%q: %v", v, err)
		}
		ev := res.Events(10)
		if len(ev) != 1 {
			t.Fatalf("%q: events = %d, want 1", v, len(ev))
		}
		if math.Abs(ev[0].TCA-800) > 3 {
			t.Errorf("%q: TCA = %v", v, ev[0].TCA)
		}
	}
}

func TestScreenUnknownVariant(t *testing.T) {
	if _, err := Screen(nil, Options{Variant: "quantum", DurationSeconds: 10}); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestScreenWithJ2(t *testing.T) {
	sats := crossingPair(t, 500)
	// The pair was engineered to meet under two-body motion; J2's secular
	// along-track drift (different at the two inclinations) turns the hit
	// into a ~10–15 km miss over 500 s. A 25 km threshold must still catch
	// it, and the two-body screen must report a much smaller PCA.
	resJ2, err := Screen(sats, Options{ThresholdKm: 25, DurationSeconds: 1000, UseJ2: true})
	if err != nil {
		t.Fatal(err)
	}
	evJ2 := resJ2.Events(10)
	if len(evJ2) != 1 {
		t.Fatalf("J2 events = %d, want 1", len(evJ2))
	}
	res2B, err := Screen(sats, Options{ThresholdKm: 25, DurationSeconds: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ev2B := res2B.Events(10)
	if len(ev2B) != 1 {
		t.Fatalf("two-body events = %d, want 1", len(ev2B))
	}
	if evJ2[0].PCA <= ev2B[0].PCA+1 {
		t.Errorf("J2 PCA %v should exceed two-body PCA %v (secular drift)", evJ2[0].PCA, ev2B[0].PCA)
	}
}

func TestGeneratePopulationAndScreenSmoke(t *testing.T) {
	sats, err := GeneratePopulation(PopulationConfig{N: 300, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Screen(sats, Options{ThresholdKm: 2, DurationSeconds: 120})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Steps == 0 {
		t.Error("no steps recorded")
	}
}

func TestTLERoundtripThroughFacade(t *testing.T) {
	sats := crossingPair(t, 500)
	var buf strings.Builder
	if err := SaveTLE(&buf, sats); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTLE(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("loaded %d satellites", len(back))
	}
	for i := range back {
		if math.Abs(back[i].Elements.SemiMajorAxis-sats[i].Elements.SemiMajorAxis) > 0.1 {
			t.Errorf("satellite %d semi-major axis drifted: %v vs %v",
				i, back[i].Elements.SemiMajorAxis, sats[i].Elements.SemiMajorAxis)
		}
	}
	// The reloaded catalogue must still produce the conjunction.
	res, err := Screen(back, Options{ThresholdKm: 2, DurationSeconds: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events(10)) != 1 {
		t.Error("TLE round-trip lost the encounter")
	}
}

func TestGenerateWalkerFacade(t *testing.T) {
	sats, err := GenerateWalker(WalkerConfig{Planes: 3, PerPlane: 5, AltitudeKm: 550, InclinationRad: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(sats) != 15 {
		t.Errorf("generated %d", len(sats))
	}
}

func TestGenerateFragmentationFacade(t *testing.T) {
	frags, err := GenerateFragmentation(FragmentationConfig{
		Parent:        Elements{SemiMajorAxis: 7100, Eccentricity: 0.001, Inclination: 1.0},
		TimeOfBreakup: 100,
		N:             25,
		DeltaVKmS:     0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 25 {
		t.Errorf("generated %d", len(frags))
	}
}

func TestLegacyResultShape(t *testing.T) {
	sats := crossingPair(t, 500)
	res, err := Screen(sats, Options{Variant: VariantLegacy, ThresholdKm: 2, DurationSeconds: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Variant != VariantLegacy || res.Backend != "cpu-sequential" {
		t.Errorf("variant/backend = %q/%q", res.Variant, res.Backend)
	}
	if res.Stats.Detection <= 0 {
		t.Error("legacy elapsed time not mapped")
	}
	if res.Stats.FilterStats.Pairs != 1 {
		t.Errorf("filter stats not mapped: %+v", res.Stats.FilterStats)
	}
}
