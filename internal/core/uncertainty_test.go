package core

import (
	"testing"

	"repro/internal/propagation"
)

func TestUniformUncertaintyWidensThreshold(t *testing.T) {
	// 10 km engineered miss, 2 km base threshold: undetected without
	// uncertainty, detected once both objects carry 5 km uncertainty
	// (d_eff = 2 + 5 + 5 = 12 km).
	a, b := meetingPair(0, 1, 1000, 1.1, 10)
	sats := []propagation.Satellite{a, b}

	plain, err := newGrid(Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: 2000}).Screen(sats)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Conjunctions) != 0 {
		t.Fatalf("10 km miss reported at 2 km threshold: %+v", plain.Conjunctions)
	}

	for _, variant := range []string{"grid", "hybrid"} {
		cfg := Config{ThresholdKm: 2, DurationSeconds: 2000, Uncertainty: UniformUncertainty(5)}
		var res *Result
		if variant == "grid" {
			cfg.SecondsPerSample = 1
			res, err = newGrid(cfg).Screen(sats)
		} else {
			res, err = newHybrid(cfg).Screen(sats)
		}
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		ev := res.Events(10)
		if len(ev) != 1 {
			t.Fatalf("%s: events = %d, want 1 with widened threshold", variant, len(ev))
		}
		if ev[0].PCA < 8 || ev[0].PCA > 12 {
			t.Errorf("%s: PCA = %v, want ≈10", variant, ev[0].PCA)
		}
	}
}

func TestSliceUncertaintyPerObject(t *testing.T) {
	// Only one object of the pair carries uncertainty: d_eff = 2 + 9 = 11
	// still covers the 10 km miss; a third far pair with no uncertainty
	// must remain clean.
	a, b := meetingPair(0, 1, 800, 1.1, 10)
	c, d := meetingPair(2, 3, 400, 0.9, 10)
	u := SliceUncertainty{9, 0, 0, 0} // only object 0
	res, err := newGrid(Config{
		ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: 1600,
		Uncertainty: u,
	}).Screen([]propagation.Satellite{a, b, c, d})
	if err != nil {
		t.Fatal(err)
	}
	ev := res.Events(10)
	if len(ev) != 1 {
		t.Fatalf("events = %d, want exactly the uncertain pair", len(ev))
	}
	if ev[0].A != 0 || ev[0].B != 1 {
		t.Errorf("detected pair (%d,%d), want (0,1)", ev[0].A, ev[0].B)
	}
}

func TestUncertaintyValidation(t *testing.T) {
	a, b := meetingPair(0, 1, 100, 1.1, 0)
	_, err := newGrid(Config{
		ThresholdKm: 2, DurationSeconds: 200,
		Uncertainty: UniformUncertainty(-1),
	}).Screen([]propagation.Satellite{a, b})
	if err == nil {
		t.Error("negative uncertainty accepted")
	}
}

func TestSliceUncertaintyOutOfRange(t *testing.T) {
	u := SliceUncertainty{1, 2}
	if u.UncertaintyKm(5) != 0 || u.UncertaintyKm(-1) != 0 {
		t.Error("out-of-range IDs must map to zero uncertainty")
	}
	if u.UncertaintyKm(1) != 2 {
		t.Error("in-range lookup broken")
	}
}
