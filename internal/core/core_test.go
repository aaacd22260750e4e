package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/orbit"
	"repro/internal/propagation"
)

// meetingPair builds two co-shell satellites on crossing planes phased to
// pass through the same mutual-node point at time tMeet. radialOffsetKm
// lifts the second orbit's shell so the encounter misses by roughly that
// distance.
func meetingPair(idA, idB int32, tMeet, incB, radialOffsetKm float64) (propagation.Satellite, propagation.Satellite) {
	elA := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: 0.4}
	elB := orbit.Elements{SemiMajorAxis: 7000 + radialOffsetKm, Eccentricity: 0.0005, Inclination: incB}
	// Both planes share RAAN 0, so the mutual node line is ±x̂; with ω = 0,
	// true anomaly 0 puts a satellite exactly on the +x̂ node ray. Phase the
	// mean anomaly so f = 0 occurs at tMeet.
	nA := elA.MeanMotion()
	nB := elB.MeanMotion()
	elA.MeanAnomaly = mathx.NormalizeAngle(-nA * tMeet)
	elB.MeanAnomaly = mathx.NormalizeAngle(-nB * tMeet)
	return propagation.MustSatellite(idA, elA), propagation.MustSatellite(idB, elB)
}

func TestGridDetectsEngineeredConjunction(t *testing.T) {
	a, b := meetingPair(0, 1, 1000, 1.1, 0)
	det := newGrid(Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: 2000, Workers: 2})
	res, err := det.Screen([]propagation.Satellite{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Conjunctions) == 0 {
		t.Fatal("engineered conjunction not detected")
	}
	ev := res.Events(5)
	if len(ev) != 1 {
		t.Fatalf("Events = %d, want 1 (raw %d)", len(ev), len(res.Conjunctions))
	}
	if math.Abs(ev[0].TCA-1000) > 2 {
		t.Errorf("TCA = %v, want ≈1000", ev[0].TCA)
	}
	if ev[0].PCA > 0.5 {
		t.Errorf("PCA = %v km, want ≈0 (satellites meet at the node)", ev[0].PCA)
	}
	if res.UniquePairs() != 1 {
		t.Errorf("UniquePairs = %d", res.UniquePairs())
	}
}

func TestHybridDetectsEngineeredConjunction(t *testing.T) {
	a, b := meetingPair(0, 1, 1000, 1.1, 0)
	det := newHybrid(Config{ThresholdKm: 2, DurationSeconds: 2000, Workers: 2})
	res, err := det.Screen([]propagation.Satellite{a, b})
	if err != nil {
		t.Fatal(err)
	}
	ev := res.Events(5)
	if len(ev) != 1 {
		t.Fatalf("Events = %d, want 1 (raw %d)", len(ev), len(res.Conjunctions))
	}
	if math.Abs(ev[0].TCA-1000) > 2 {
		t.Errorf("TCA = %v, want ≈1000", ev[0].TCA)
	}
	if res.Stats.FilterStats.Pairs == 0 {
		t.Error("hybrid never ran the filter chain")
	}
}

func TestNearMissAboveThresholdIgnored(t *testing.T) {
	// 10 km radial offset: the encounter bottoms out around 10 km — far
	// above the 2 km screening threshold.
	a, b := meetingPair(0, 1, 1000, 1.1, 10)
	for name, screen := range map[string]func([]propagation.Satellite) (*Result, error){
		"grid":   newGrid(Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: 2000}).Screen,
		"hybrid": newHybrid(Config{ThresholdKm: 2, DurationSeconds: 2000}).Screen,
	} {
		res, err := screen([]propagation.Satellite{a, b})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Conjunctions) != 0 {
			t.Errorf("%s: near-miss above threshold reported: %+v", name, res.Conjunctions)
		}
	}
}

func TestNearMissLargerThresholdDetected(t *testing.T) {
	// Same 10 km near-miss with a 15 km threshold must be reported, with
	// PCA ≈ offset.
	a, b := meetingPair(0, 1, 1000, 1.1, 10)
	res, err := newGrid(Config{ThresholdKm: 15, SecondsPerSample: 1, DurationSeconds: 2000}).Screen(
		[]propagation.Satellite{a, b})
	if err != nil {
		t.Fatal(err)
	}
	ev := res.Events(5)
	if len(ev) != 1 {
		t.Fatalf("Events = %d, want 1", len(ev))
	}
	if ev[0].PCA < 8 || ev[0].PCA > 12 {
		t.Errorf("PCA = %v, want ≈10", ev[0].PCA)
	}
}

func TestGridConfigValidation(t *testing.T) {
	if _, err := newGrid(Config{}).Screen(nil); err != ErrNoDuration {
		t.Errorf("missing duration: err = %v", err)
	}
	a, _ := meetingPair(0, 1, 100, 1.1, 0)
	dup := a
	if _, err := newGrid(Config{DurationSeconds: 10}).Screen([]propagation.Satellite{a, dup}); err == nil {
		t.Error("duplicate IDs accepted")
	}
	big := a
	big.ID = 1 << 21
	if _, err := newGrid(Config{DurationSeconds: 10}).Screen([]propagation.Satellite{a, big}); err == nil {
		t.Error("oversized ID accepted")
	}
}

func TestEmptyAndSingletonPopulations(t *testing.T) {
	a, _ := meetingPair(0, 1, 100, 1.1, 0)
	for _, variant := range []Variant{VariantGrid, VariantHybrid} {
		for _, sats := range [][]propagation.Satellite{nil, {a}} {
			res, err := newDetector(variant, Config{DurationSeconds: 100}).Screen(sats)
			if err != nil || len(res.Conjunctions) != 0 || res.Variant != variant {
				t.Errorf("%s, %d satellites: res=%v err=%v", variant, len(sats), res, err)
			}
		}
		if _, err := newDetector(variant, Config{}).Screen(nil); !errors.Is(err, ErrNoDuration) {
			t.Errorf("%s, missing duration: err=%v, want ErrNoDuration", variant, err)
		}
	}
}

func TestGridWorkerCountInvariance(t *testing.T) {
	// Same population, different worker counts → identical conjunction sets.
	sats := engineeredPopulation(t)
	var base *Result
	for _, workers := range []int{1, 3, 8} {
		res, err := newGrid(Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: 1500, Workers: workers}).Screen(sats)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if len(res.Conjunctions) != len(base.Conjunctions) {
			t.Fatalf("workers=%d: %d conjunctions vs %d", workers, len(res.Conjunctions), len(base.Conjunctions))
		}
		for i := range res.Conjunctions {
			if res.Conjunctions[i] != base.Conjunctions[i] {
				t.Fatalf("workers=%d: conjunction %d differs: %+v vs %+v",
					workers, i, res.Conjunctions[i], base.Conjunctions[i])
			}
		}
	}
}

// engineeredPopulation builds a small population with three guaranteed
// encounters at t = 300, 700, 1200 plus non-colliding background objects.
func engineeredPopulation(t *testing.T) []propagation.Satellite {
	t.Helper()
	var sats []propagation.Satellite
	a0, b0 := meetingPair(0, 1, 300, 1.1, 0)
	a1, b1 := meetingPair(2, 3, 700, 0.9, 0.5)
	a2, b2 := meetingPair(4, 5, 1200, 1.4, 1.0)
	sats = append(sats, a0, b0, a1, b1, a2, b2)
	// Background: distinct shells, never within threshold of anything.
	rng := mathx.NewSplitMix64(77)
	for i := int32(6); i < 16; i++ {
		el := orbit.Elements{
			SemiMajorAxis: 7400 + 60*float64(i), // 300+ km shell separation
			Eccentricity:  0.001,
			Inclination:   rng.UniformRange(0, math.Pi),
			RAAN:          rng.UniformRange(0, mathx.TwoPi),
			ArgPerigee:    rng.UniformRange(0, mathx.TwoPi),
			MeanAnomaly:   rng.UniformRange(0, mathx.TwoPi),
		}
		sats = append(sats, propagation.MustSatellite(i, el))
	}
	return sats
}

func TestEngineeredPopulationAllVariantsAgree(t *testing.T) {
	sats := engineeredPopulation(t)
	wantPairs := map[[2]int32]float64{ // pair → expected TCA
		{0, 1}: 300,
		{2, 3}: 700,
		{4, 5}: 1200,
	}

	grid, err := newGrid(Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: 1500, Workers: 2}).Screen(sats)
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := newHybrid(Config{ThresholdKm: 2, DurationSeconds: 1500, Workers: 2}).Screen(sats)
	if err != nil {
		t.Fatal(err)
	}

	for name, res := range map[string]*Result{"grid": grid, "hybrid": hybrid} {
		ev := res.Events(10)
		if len(ev) != len(wantPairs) {
			t.Errorf("%s: %d events, want %d: %+v", name, len(ev), len(wantPairs), ev)
			continue
		}
		for _, c := range ev {
			wantTCA, ok := wantPairs[[2]int32{c.A, c.B}]
			if !ok {
				t.Errorf("%s: unexpected pair (%d,%d)", name, c.A, c.B)
				continue
			}
			if math.Abs(c.TCA-wantTCA) > 3 {
				t.Errorf("%s: pair (%d,%d) TCA %v, want ≈%v", name, c.A, c.B, c.TCA, wantTCA)
			}
		}
	}
}

func TestStatsPhaseAccounting(t *testing.T) {
	sats := engineeredPopulation(t)
	res, err := newHybrid(Config{ThresholdKm: 2, DurationSeconds: 1000}).Screen(sats)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Steps != stepCount(1000, DefaultHybridSeconds) {
		t.Errorf("Steps = %d", st.Steps)
	}
	if st.Insertion <= 0 || st.Detection <= 0 {
		t.Errorf("phase timings not recorded: %+v", st)
	}
	if st.Coplanarity <= 0 {
		t.Error("hybrid coplanarity phase not recorded")
	}
	if st.CandidatePairs < 3 {
		t.Errorf("CandidatePairs = %d", st.CandidatePairs)
	}
	if st.Refinements == 0 {
		t.Error("no refinements recorded")
	}
	if st.Total() <= 0 {
		t.Error("Total() <= 0")
	}

	// The collect (concatenate, sort) is candidate generation: it runs
	// before the sample phase is reported, so PhaseSample already knows the
	// final candidate count, and its span is Detection's.
	for name, screen := range map[string]func(Config) (*Result, error){
		"grid":   func(c Config) (*Result, error) { return newGrid(c).Screen(sats) },
		"hybrid": func(c Config) (*Result, error) { return newHybrid(c).Screen(sats) },
		"grid-delta": func(c Config) (*Result, error) {
			return newGrid(c).ScreenDelta(context.Background(), sats, DeltaInput{Dirty: []int32{0}})
		},
	} {
		sampled := -1
		cfg := Config{ThresholdKm: 2, DurationSeconds: 1000, Observer: ObserverFuncs{Phase: func(p PhaseInfo) {
			if p.Phase == PhaseSample {
				sampled = p.Candidates
			}
		}}}
		res, err := screen(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st := res.Stats; st.CandidatePairs == 0 || sampled != st.CandidatePairs || st.Detection <= 0 {
			t.Errorf("%s: PhaseSample reported %d candidates, stats %d, Detection %v", name, sampled, st.CandidatePairs, st.Detection)
		}
	}
}

func TestGridStatsForGridVariantHaveNoCoplanarity(t *testing.T) {
	sats := engineeredPopulation(t)
	res, err := newGrid(Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: 500}).Screen(sats)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Coplanarity != 0 {
		t.Error("grid variant reported a coplanarity phase")
	}
	if res.Variant != VariantGrid {
		t.Errorf("Variant = %q", res.Variant)
	}
}

func TestEventsMerging(t *testing.T) {
	r := &Result{Conjunctions: []Conjunction{
		{A: 1, B: 2, TCA: 100, PCA: 1.5},
		{A: 1, B: 2, TCA: 101, PCA: 1.2}, // same event, better PCA
		{A: 1, B: 2, TCA: 500, PCA: 1.9}, // second event
		{A: 3, B: 4, TCA: 100.5, PCA: 0.3},
	}}
	ev := r.Events(5)
	if len(ev) != 3 {
		t.Fatalf("Events = %d, want 3", len(ev))
	}
	if ev[0].PCA != 1.2 {
		t.Errorf("merged PCA = %v, want 1.2", ev[0].PCA)
	}
	if r.UniquePairs() != 2 {
		t.Errorf("UniquePairs = %d, want 2", r.UniquePairs())
	}
}

func TestStepCount(t *testing.T) {
	if got := stepCount(10, 1); got != 11 {
		t.Errorf("stepCount(10,1) = %d, want 11", got)
	}
	if got := stepCount(9.5, 1); got != 10 {
		t.Errorf("stepCount(9.5,1) = %d, want 10", got)
	}
	if got := stepCount(100, 9); got != 12 {
		t.Errorf("stepCount(100,9) = %d, want 12", got)
	}
}

func TestOutOfBoundsCounted(t *testing.T) {
	// A cube too small for the orbits: every sample lands outside and is
	// counted, producing no conjunctions and no crash.
	a, b := meetingPair(0, 1, 100, 1.1, 0)
	res, err := newGrid(Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: 50, halfExtentKm: 1000}).Screen(
		[]propagation.Satellite{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.OutOfBounds == 0 {
		t.Error("out-of-cube samples not counted")
	}
	if len(res.Conjunctions) != 0 {
		t.Error("conjunctions reported for out-of-cube satellites")
	}
}
