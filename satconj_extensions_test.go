package satconj

import (
	"math"
	"strings"
	"testing"

	"repro/internal/mathx"
	"time"
)

func TestScreenWithUncertainty(t *testing.T) {
	// 10 km engineered miss detected only once the pair carries 2×5 km
	// uncertainty on top of the 2 km threshold.
	elA := Elements{SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: 0.4}
	elB := Elements{SemiMajorAxis: 7010, Eccentricity: 0.0005, Inclination: 1.1}
	elA.MeanAnomaly = mathx.NormalizeAngle(-elA.MeanMotion() * 500)
	elB.MeanAnomaly = mathx.NormalizeAngle(-elB.MeanMotion() * 500)
	a, _ := NewSatellite(0, elA)
	b, _ := NewSatellite(1, elB)
	sats := []Satellite{a, b}
	plain, err := Screen(sats, Options{ThresholdKm: 2, DurationSeconds: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Conjunctions) != 0 {
		t.Fatal("miss reported without uncertainty")
	}
	widened, err := Screen(sats, Options{ThresholdKm: 2, DurationSeconds: 1000, Uncertainty: UniformUncertainty(5)})
	if err != nil {
		t.Fatal(err)
	}
	if len(widened.Events(10)) != 1 {
		t.Error("uncertainty-widened screen missed the encounter")
	}
}

func TestScreenWithNumericPropagator(t *testing.T) {
	sats := crossingPair(t, 400)
	// Numeric two-body must agree with analytic two-body.
	analytic, err := Screen(sats, Options{ThresholdKm: 2, DurationSeconds: 800})
	if err != nil {
		t.Fatal(err)
	}
	numeric, err := Screen(sats, Options{
		ThresholdKm: 2, DurationSeconds: 800,
		SecondsPerSample: 30, // coarse: numeric State() is O(t/step) per call
		Propagator:       NumericPropagator(20, ForcePointMass()),
	})
	if err != nil {
		t.Fatal(err)
	}
	evA, evN := analytic.Events(10), numeric.Events(10)
	if len(evA) != 1 || len(evN) != 1 {
		t.Fatalf("events: analytic %d, numeric %d (want 1 each)", len(evA), len(evN))
	}
	if math.Abs(evA[0].TCA-evN[0].TCA) > 2 {
		t.Errorf("TCA mismatch: %v vs %v", evA[0].TCA, evN[0].TCA)
	}
}

func TestPropagatorConstructors(t *testing.T) {
	if TwoBodyPropagator().Name() != "two-body" {
		t.Error("TwoBodyPropagator")
	}
	if J2Propagator().Name() != "j2-secular" {
		t.Error("J2Propagator")
	}
	if !strings.Contains(NumericPropagator(10, ForcePointMass(), ForceJ2(), ForceDrag(0.02)).Name(), "3 forces") {
		t.Error("NumericPropagator force count")
	}
}

func TestWriteCDMsFacade(t *testing.T) {
	sats := crossingPair(t, 500)
	opts := Options{ThresholdKm: 2, DurationSeconds: 1000}
	res, err := Screen(sats, opts)
	if err != nil {
		t.Fatal(err)
	}
	ev := res.Events(10)
	if len(ev) != 1 {
		t.Fatalf("events = %d", len(ev))
	}
	var sb strings.Builder
	epoch := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	if err := WriteCDMs(&sb, ev, sats, opts, epoch, "SATCONJ"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "CCSDS_CDM_VERS") || !strings.Contains(out, "MISS_DISTANCE") {
		t.Errorf("CDM output malformed:\n%s", out)
	}
}

func TestLoadTLEAtEpochAlignment(t *testing.T) {
	// Save a crossing pair, reload it aligned to an epoch one hour past the
	// catalogue epoch: the encounter's TCA must shift back by that hour.
	sats := crossingPair(t, 5000)
	var buf strings.Builder
	if err := SaveTLE(&buf, sats); err != nil {
		t.Fatal(err)
	}
	catEpoch := time.Date(2021, 4, 8, 12, 0, 0, 0, time.UTC) // 2021 day 98.5 (the writer's epoch)
	atCat, err := LoadTLEAt(strings.NewReader(buf.String()), catEpoch)
	if err != nil {
		t.Fatal(err)
	}
	resCat, err := Screen(atCat, Options{ThresholdKm: 5, DurationSeconds: 6000})
	if err != nil {
		t.Fatal(err)
	}
	evCat := resCat.Events(10)
	if len(evCat) == 0 {
		t.Fatal("no encounter at catalogue epoch")
	}

	const shiftSec = 600.0
	shifted, err := LoadTLEAt(strings.NewReader(buf.String()), catEpoch.Add(shiftSec*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	resShift, err := Screen(shifted, Options{ThresholdKm: 5, DurationSeconds: 6000})
	if err != nil {
		t.Fatal(err)
	}
	evShift := resShift.Events(10)
	if len(evShift) == 0 {
		t.Fatal("no encounter at shifted epoch")
	}
	// The same physical encounter now happens shiftSec earlier in screen
	// time (the pair re-encounters every half period, so match the nearest
	// shifted event).
	want := evCat[0].TCA - shiftSec
	best := math.Inf(1)
	for _, e := range evShift {
		if d := math.Abs(e.TCA - want); d < best {
			best = d
		}
	}
	if best > 5 {
		t.Errorf("no shifted event near %v (closest off by %v)", want, best)
	}
}

func TestCollisionProbabilityFacade(t *testing.T) {
	c := Conjunction{A: 1, B: 2, TCA: 100, PCA: 0.05}
	a, err := CollisionProbability(c, 0.1, 0.05, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if a.Pc <= 0 || a.Pc >= 1 {
		t.Errorf("Pc = %v", a.Pc)
	}
	if a.Category == "" {
		t.Error("category missing")
	}
	if _, err := CollisionProbability(Conjunction{PCA: -1}, 0.1, 0.1, 0.01); err == nil {
		t.Error("invalid PCA accepted")
	}
}
