package core

// Cross-variant differential battery: the same seeded population screened
// by every detector flavour — grid (single worker, pooled warm, pooling
// disabled, pre-filter off, one-slot ring), hybrid, and an alternative-index
// screener built on the k-d tree — must report the same physical encounters. Agreement is tolerance-aware: TCAs
// within one (coarsest) sampling step, PCAs within threshold slack; exact
// equality is not required because the variants sample at different rates
// and flag candidates at different steps.

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/kdtree"
	"repro/internal/lockfree"
	"repro/internal/mathx"
	"repro/internal/orbit"
	"repro/internal/pool"
	"repro/internal/propagation"
	"repro/internal/spatial"
)

// seededEncounterPopulation mixes a deterministic random shell with
// engineered crossings: offsets are kept either clearly below or clearly
// above the 2 km screening threshold so no variant is judged on a
// borderline event.
func seededEncounterPopulation(seed uint64, span float64) []propagation.Satellite {
	sats := denseShellPopulation(16, seed)
	rng := mathx.NewSplitMix64(seed + 1)
	id := int32(len(sats))
	for k := 0; k < 8; k++ {
		tMeet := rng.UniformRange(150, span-150)
		incA := rng.UniformRange(0.2, 1.0)
		incB := incA + rng.UniformRange(0.4, 1.4)
		offset := rng.UniformRange(0, 1.2) // well below the 2 km threshold
		if k%3 == 2 {
			offset = rng.UniformRange(5, 20) // well above: must stay silent
		}
		elA := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: incA,
			MeanAnomaly: mathx.NormalizeAngle(-orbit.Elements{SemiMajorAxis: 7000}.MeanMotion() * tMeet)}
		elB := orbit.Elements{SemiMajorAxis: 7000 + offset, Eccentricity: 0.0005, Inclination: incB,
			MeanAnomaly: mathx.NormalizeAngle(-orbit.Elements{SemiMajorAxis: 7000 + offset}.MeanMotion() * tMeet)}
		sats = append(sats,
			propagation.MustSatellite(id, elA),
			propagation.MustSatellite(id+1, elB))
		id += 2
	}
	return sats
}

// assertEventsAgree checks two event lists describe the same encounters:
// every event on each side must have a counterpart on the other with the
// same pair, a TCA within tcaTol, and a PCA within pcaTol.
func assertEventsAgree(t *testing.T, name string, got, want []Conjunction, tcaTol, pcaTol float64) {
	t.Helper()
	match := func(from, to []Conjunction, label string) {
		for _, w := range from {
			found := false
			for _, g := range to {
				if g.A == w.A && g.B == w.B && math.Abs(g.TCA-w.TCA) <= tcaTol {
					found = true
					if math.Abs(g.PCA-w.PCA) > pcaTol {
						t.Errorf("%s: pair (%d,%d) PCA %.4f vs reference %.4f", name, w.A, w.B, g.PCA, w.PCA)
					}
					break
				}
			}
			if !found {
				t.Errorf("%s: %s event pair (%d,%d) tca=%.2f pca=%.4f", name, label, w.A, w.B, w.TCA, w.PCA)
			}
		}
	}
	match(want, got, "missing")
	match(got, want, "spurious")
}

// screenWithTree is a full conjunction screener whose candidate generator is
// an exact radius query over a per-step rebuilt k-d tree — the §IV-A
// alternative the paper dismisses on cost (see kdtree_ablation_test.go).
// Candidate identification aside, it shares the pipeline with the grid
// detector: Eq. 1 radius, per-step flagging, Brent PCA/TCA refinement. Its
// output is therefore a structure-independent differential reference.
func screenWithTree(sats []propagation.Satellite, threshold, sps, span float64) *Result {
	prop := propagation.TwoBody{}
	cell := spatial.CellSize(threshold, sps)
	steps := stepCount(span, sps)
	ref := newRefiner(prop, threshold, span)
	idx := make(map[int32]int, len(sats))
	for i := range sats {
		idx[sats[i].ID] = i
	}
	seen := make(map[uint64]lockfree.Pair)
	pts := make([]kdtree.Point, len(sats))
	for step := 0; step < steps; step++ {
		t := float64(step) * sps
		for i := range sats {
			pos, _ := prop.State(&sats[i], t)
			pts[i] = kdtree.Point{ID: sats[i].ID, Pos: pos}
		}
		s := uint32(step)
		kdtree.Build(pts).PairsWithin(cell, func(a, b kdtree.Point) { // Build reorders pts; every step refills it
			seen[lockfree.PackPair(a.ID, b.ID, s)] = lockfree.Pair{A: min(a.ID, b.ID), B: max(a.ID, b.ID), Step: s}
		})
	}
	var out []Conjunction
	for _, p := range seen {
		a := &sats[idx[p.A]]
		b := &sats[idx[p.B]]
		center := float64(p.Step) * sps
		radius := intervalRadius(cell, a, b, prop, center)
		tca, pca, outcome := ref.refineThreshold(a, b, center, radius, threshold)
		if outcome == refineBelowThreshold {
			out = append(out, Conjunction{A: p.A, B: p.B, Step: p.Step, TCA: tca, PCA: pca})
		}
	}
	slices.SortFunc(out, CompareConjunctions)
	return &Result{Conjunctions: out}
}

// TestVariantsDifferentialAgreement is the cross-variant battery.
func TestVariantsDifferentialAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep screens the population a dozen times; skipped with -short")
	}
	const (
		span      = 1800.0
		threshold = 2.0
	)
	sats := seededEncounterPopulation(42, span)

	ref, err := newGrid(Config{ThresholdKm: threshold, SecondsPerSample: 1, DurationSeconds: span, Workers: 2}).Screen(sats)
	if err != nil {
		t.Fatal(err)
	}
	reference := ref.Events(10)
	if len(reference) < 4 {
		t.Fatalf("reference grid found only %d events; population not dense enough", len(reference))
	}
	t.Logf("reference: %d events", len(reference))

	warmPool := pool.New()
	variants := map[string]func() (*Result, error){
		"grid-single-worker": func() (*Result, error) {
			return newGrid(Config{ThresholdKm: threshold, SecondsPerSample: 1, DurationSeconds: span, Workers: 1}).Screen(sats)
		},
		"grid-pool-disabled": func() (*Result, error) {
			return newGrid(Config{ThresholdKm: threshold, SecondsPerSample: 1, DurationSeconds: span, Workers: 2, Pool: pool.Disabled()}).Screen(sats)
		},
		"grid-warm-pool": func() (*Result, error) {
			// Two runs on one private pool: the second screens entirely from
			// recycled structures.
			det := newGrid(Config{ThresholdKm: threshold, SecondsPerSample: 1, DurationSeconds: span, Workers: 2, Pool: warmPool})
			if _, err := det.Screen(sats); err != nil {
				return nil, err
			}
			return det.Screen(sats)
		},
		"grid-prefilter-off": func() (*Result, error) {
			// Ablation: with the analytic pre-filter disabled every
			// candidate goes to Brent; the event set must not move.
			return newGrid(Config{ThresholdKm: threshold, SecondsPerSample: 1, DurationSeconds: span,
				Workers: 2, ablation: ablation{noPrefilter: true}}).Screen(sats)
		},
		"grid-no-pipeline": func() (*Result, error) {
			// Ablation: every scan inline on a one-slot ring instead of the
			// two-slot ring the Workers: 2 reference uses.
			return newGrid(Config{ThresholdKm: threshold, SecondsPerSample: 1, DurationSeconds: span,
				Workers: 2, ablation: ablation{oneSlotRing: true}}).Screen(sats)
		},
		"hybrid": func() (*Result, error) {
			return newHybrid(Config{ThresholdKm: threshold, DurationSeconds: span, Workers: 2}).Screen(sats)
		},
		"kdtree": func() (*Result, error) {
			return screenWithTree(sats, threshold, 1, span), nil
		},
	}
	// Tolerances: one hybrid sampling step (the coarsest variant, 9 s) of
	// TCA slack plus margin; PCA slack of a tenth of the threshold covers
	// different refinement brackets converging on the same minimum.
	const tcaTol, pcaTol = 10.0, 0.2
	for name, screen := range variants {
		t.Run(name, func(t *testing.T) {
			res, err := screen()
			if err != nil {
				t.Fatal(err)
			}
			assertEventsAgree(t, name, res.Events(10), reference, tcaTol, pcaTol)
		})
	}
	// Registry sweep: every detector registered in this test binary (grid,
	// hybrid, aabb — the out-of-package baselines are covered by the external
	// battery in registry_battery_test.go) is pinned automatically, so a new
	// registration joins the battery with zero test edits.
	for _, d := range Variants() {
		d := d
		t.Run("registry-"+string(d.Name), func(t *testing.T) {
			det := d.New(Config{ThresholdKm: threshold, DurationSeconds: span, Workers: 2})
			res, err := det.ScreenContext(context.Background(), sats)
			if err != nil {
				t.Fatal(err)
			}
			if res.Variant != d.Name {
				t.Errorf("result variant %q, want %q", res.Variant, d.Name)
			}
			assertEventsAgree(t, string(d.Name), res.Events(10), reference, tcaTol, pcaTol)
		})
	}
	if out := warmPool.Stats().Outstanding(); out != 0 {
		t.Errorf("warm pool left %d structures outstanding", out)
	}
}
