package core

// Shard differential battery: the sharded detector must be observationally
// identical to its inner detector run unsharded. Because every shard screens
// inside the full population's cube with full-size cells, agreement is exact
// slice equality — same pairs, same steps, same refined TCA/PCA — not the
// tolerance matching the cross-variant battery uses. The battery also pins
// the ownership dedup (cross-band pairs exactly once), the streamed sink and
// observer fan-in, pool balance on success, cancellation and rejected input,
// and the degenerate fallbacks.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/band"
	"repro/internal/mathx"
	"repro/internal/orbit"
	"repro/internal/pool"
	"repro/internal/propagation"
)

// multiShellEncounterPopulation spreads engineered crossing pairs across
// three radial shells far enough apart that a forced partition separates
// them cleanly — the wide-band regime, complementing the narrow shell of
// seededEncounterPopulation where halo padding dominates band width.
func multiShellEncounterPopulation(seed uint64, span float64) []propagation.Satellite {
	rng := mathx.NewSplitMix64(seed)
	var sats []propagation.Satellite
	id := int32(0)
	for _, base := range []float64{6900, 7150, 7400} {
		for k := 0; k < 5; k++ {
			tMeet := rng.UniformRange(150, span-150)
			incA := rng.UniformRange(0.2, 1.0)
			incB := incA + rng.UniformRange(0.4, 1.4)
			offset := rng.UniformRange(0, 1.2)
			if k%3 == 2 {
				offset = rng.UniformRange(5, 20) // well above: must stay silent
			}
			elA := orbit.Elements{SemiMajorAxis: base, Eccentricity: 0.0005, Inclination: incA,
				MeanAnomaly: mathx.NormalizeAngle(-orbit.Elements{SemiMajorAxis: base}.MeanMotion() * tMeet)}
			elB := orbit.Elements{SemiMajorAxis: base + offset, Eccentricity: 0.0005, Inclination: incB,
				MeanAnomaly: mathx.NormalizeAngle(-orbit.Elements{SemiMajorAxis: base + offset}.MeanMotion() * tMeet)}
			sats = append(sats,
				propagation.MustSatellite(id, elA),
				propagation.MustSatellite(id+1, elB))
			id += 2
		}
	}
	return sats
}

// assertNoDuplicateConjunctions fails if any (A, B, Step) triple appears
// twice — the observable symptom of a broken halo-ownership rule.
func assertNoDuplicateConjunctions(t *testing.T, conj []Conjunction) {
	t.Helper()
	seen := make(map[Conjunction]struct{}, len(conj))
	for _, c := range conj {
		key := Conjunction{A: c.A, B: c.B, Step: c.Step}
		if _, dup := seen[key]; dup {
			t.Errorf("duplicate conjunction for pair (%d,%d) step %d", c.A, c.B, c.Step)
		}
		seen[key] = struct{}{}
	}
}

// TestShardedMatchesGridExactly is the dedup property test ISSUE.md pins the
// sharding layer on: across populations, seeds, and forced shard counts, the
// sharded detector's merged output must equal the unsharded grid's exactly.
func TestShardedMatchesGridExactly(t *testing.T) {
	const span = 1800.0
	populations := map[string]func(uint64, float64) []propagation.Satellite{
		"narrow-shell": seededEncounterPopulation,
		"multi-shell":  multiShellEncounterPopulation,
	}
	for popName, popFn := range populations {
		for _, seed := range []uint64{3, 17} {
			for _, shards := range []int{3, 8} {
				sats := popFn(seed, span)
				base := Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: span, Workers: 2}

				ref, err := NewGrid(base).Screen(sats)
				if err != nil {
					t.Fatal(err)
				}
				if len(ref.Conjunctions) < 2 {
					t.Fatalf("%s seed %d: reference found only %d conjunctions; fixture too sparse",
						popName, seed, len(ref.Conjunctions))
				}

				cfg := base
				cfg.Shards = shards
				cfg.ShardConcurrency = 2
				res, err := NewSharded(cfg, VariantGrid).Screen(sats)
				if err != nil {
					t.Fatal(err)
				}

				label := popName + "/" + string(rune('0'+shards)) + "-shards"
				if res.Variant != VariantSharded {
					t.Errorf("%s seed %d: variant = %q, want %q", label, seed, res.Variant, VariantSharded)
				}
				if res.Stats.Shards < 2 {
					t.Errorf("%s seed %d: Stats.Shards = %d, want ≥2 (population did not shard)",
						label, seed, res.Stats.Shards)
				}
				assertNoDuplicateConjunctions(t, res.Conjunctions)
				if !reflect.DeepEqual(res.Conjunctions, ref.Conjunctions) {
					t.Errorf("%s seed %d: sharded output differs from unsharded grid:\n sharded %d conjunctions: %+v\n grid    %d conjunctions: %+v",
						label, seed, len(res.Conjunctions), res.Conjunctions, len(ref.Conjunctions), ref.Conjunctions)
				}
			}
		}
	}
}

// TestShardedCrossBandPairFoundOnce engineers a sub-threshold crossing pair
// whose members land in different bands of a two-way partition, so the
// conjunction is discoverable only through halo replication — and must
// survive the ownership dedup exactly once.
func TestShardedCrossBandPairFoundOnce(t *testing.T) {
	const (
		span  = 1800.0
		tMeet = 600.0
	)
	var sats []propagation.Satellite
	id := int32(0)
	// Two well-separated filler clusters position the median cut between the
	// engineered pair's perigees.
	rng := mathx.NewSplitMix64(42)
	for _, base := range []float64{6800, 7400} {
		for k := 0; k < 11; k++ {
			el := orbit.Elements{
				SemiMajorAxis: base + rng.UniformRange(0, 4),
				Eccentricity:  0.0003,
				Inclination:   rng.UniformRange(0.3, 1.4),
				RAAN:          rng.UniformRange(0, mathx.TwoPi),
				MeanAnomaly:   rng.UniformRange(0, mathx.TwoPi),
			}
			sats = append(sats, propagation.MustSatellite(id, el))
			id++
		}
	}
	pairA, pairB := id, id+1
	elA := orbit.Elements{SemiMajorAxis: 7100, Eccentricity: 0.0003, Inclination: 0.5,
		MeanAnomaly: mathx.NormalizeAngle(-orbit.Elements{SemiMajorAxis: 7100}.MeanMotion() * tMeet)}
	elB := orbit.Elements{SemiMajorAxis: 7100.4, Eccentricity: 0.0003, Inclination: 1.2,
		MeanAnomaly: mathx.NormalizeAngle(-orbit.Elements{SemiMajorAxis: 7100.4}.MeanMotion() * tMeet)}
	sats = append(sats, propagation.MustSatellite(pairA, elA), propagation.MustSatellite(pairB, elB))

	// Replicate the detector's partition to confirm the fixture really does
	// straddle a band boundary (IDs equal slice indices here).
	asn := band.Partition(sats, 2, 2.0/2+1e-9)
	if asn.Bands() != 2 {
		t.Fatalf("fixture produced %d bands, want 2", asn.Bands())
	}
	if asn.Lo(int(pairA)) == asn.Lo(int(pairB)) {
		t.Fatalf("fixture pair landed in one band (lo %d); not a cross-band pair", asn.Lo(int(pairA)))
	}

	base := Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: span, Workers: 2}
	ref, err := NewGrid(base).Screen(sats)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Shards = 2
	res, err := NewSharded(cfg, VariantGrid).Screen(sats)
	if err != nil {
		t.Fatal(err)
	}

	count := func(conj []Conjunction) int {
		n := 0
		for _, c := range conj {
			if c.A == pairA && c.B == pairB {
				n++
			}
		}
		return n
	}
	want := count(ref.Conjunctions)
	if want < 1 {
		t.Fatalf("grid reference missed the engineered pair; fixture broken")
	}
	if got := count(res.Conjunctions); got != want {
		t.Errorf("cross-band pair reported %d times, want %d (exactly once per encounter)", got, want)
	}
	assertNoDuplicateConjunctions(t, res.Conjunctions)
	if !reflect.DeepEqual(res.Conjunctions, ref.Conjunctions) {
		t.Errorf("sharded output differs from unsharded grid on cross-band fixture")
	}
}

// TestShardedSinkSeesOwnedSetOnce pins the streaming contract: a sink
// attached to a sharded run receives exactly the merged result's
// conjunctions — ownership filtering happens in flight, not only at merge.
func TestShardedSinkSeesOwnedSetOnce(t *testing.T) {
	const span = 1800.0
	sats := seededEncounterPopulation(5, span)

	var emitted []Conjunction
	cfg := Config{
		ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: span, Workers: 2,
		Shards: 4, ShardConcurrency: 2,
		Sink: SinkFunc(func(c Conjunction) { emitted = append(emitted, c) }),
	}
	res, err := NewSharded(cfg, VariantGrid).Screen(sats)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Conjunctions) < 2 {
		t.Fatalf("only %d conjunctions; fixture too sparse", len(res.Conjunctions))
	}
	sortConjunctions(emitted)
	if !reflect.DeepEqual(emitted, res.Conjunctions) {
		t.Errorf("sink saw %d conjunctions, result has %d; streamed and merged sets differ",
			len(emitted), len(res.Conjunctions))
	}
}

// TestShardedObserverFanIn checks the progress fan-in: step totals are
// rescaled to the whole run, completion is strictly monotone across
// concurrently screening shards, and the run ends at 100%.
func TestShardedObserverFanIn(t *testing.T) {
	const span = 900.0
	sats := seededEncounterPopulation(9, span)

	var (
		steps  []StepInfo
		phases int
	)
	cfg := Config{
		ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: span, Workers: 2,
		Shards: 4, ShardConcurrency: 2,
		Observer: ObserverFuncs{
			Step:  func(si StepInfo) { steps = append(steps, si) },
			Phase: func(PhaseInfo) { phases++ },
		},
	}
	res, err := NewSharded(cfg, VariantGrid).Screen(sats)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Shards < 2 {
		t.Fatalf("Stats.Shards = %d, want ≥2", res.Stats.Shards)
	}
	if len(steps) == 0 {
		t.Fatal("observer saw no steps")
	}
	if phases == 0 {
		t.Fatal("observer saw no phases")
	}
	total := steps[0].Steps
	for i, si := range steps {
		if si.Steps != total {
			t.Fatalf("step %d: total changed from %d to %d mid-run", i, total, si.Steps)
		}
		if si.Completed != i+1 {
			t.Fatalf("step %d: Completed = %d, want %d (strictly monotone fan-in)", i, si.Completed, i+1)
		}
	}
	if last := steps[len(steps)-1]; last.Completed != last.Steps {
		t.Errorf("final progress %d/%d; run did not report completion", last.Completed, last.Steps)
	}
}

// TestShardedPoolBalance runs a sharded screen against a private pool and
// demands every pooled structure — ID index, per-shard satellite buffers,
// and everything the inner detectors borrow — is returned, on success and
// on mid-run cancellation.
func TestShardedPoolBalance(t *testing.T) {
	const span = 900.0
	sats := seededEncounterPopulation(13, span)

	t.Run("success", func(t *testing.T) {
		pl := pool.New()
		cfg := Config{
			ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: span, Workers: 2,
			Shards: 4, ShardConcurrency: 2, Pool: pl,
		}
		if _, err := NewSharded(cfg, VariantGrid).Screen(sats); err != nil {
			t.Fatal(err)
		}
		if out := pl.Stats().Outstanding(); out != 0 {
			t.Errorf("pool outstanding = %d after successful run, want 0", out)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		pl := pool.New()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg := Config{
			ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: span, Workers: 2,
			Shards: 4, ShardConcurrency: 2, Pool: pl,
			Observer: ObserverFuncs{Step: func(StepInfo) { cancel() }},
		}
		if _, err := NewSharded(cfg, VariantGrid).ScreenContext(ctx, sats); err == nil {
			t.Fatal("expected error from mid-run cancellation")
		}
		if out := pl.Stats().Outstanding(); out != 0 {
			t.Errorf("pool outstanding = %d after cancelled run, want 0", out)
		}
	})

	// The sharded path validates before it partitions work, holding only the
	// ID index: every rejection must hand it back. A delta reaches that path
	// only above the crossover, so the invalid delta dirties everything.
	withID := func(i int, id int32) []propagation.Satellite {
		bad := append([]propagation.Satellite(nil), sats...)
		bad[i].ID = id
		return bad
	}
	allIDs := make([]int32, len(sats))
	for i := range sats {
		allIDs[i] = sats[i].ID
	}
	for name, tc := range map[string]struct {
		sats  []propagation.Satellite
		delta *DeltaInput
	}{
		"duplicate-id":    {sats: withID(1, sats[0].ID)},
		"out-of-range-id": {sats: withID(1, -1)},
		"invalid-delta":   {sats: sats, delta: &DeltaInput{Dirty: allIDs, Removed: []int32{sats[0].ID}}},
	} {
		t.Run(name, func(t *testing.T) {
			pl := pool.New()
			d := NewSharded(Config{
				ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: span, Workers: 2,
				Shards: 4, ShardConcurrency: 2, Pool: pl,
			}, VariantGrid)
			var err error
			if tc.delta != nil {
				_, err = d.ScreenDelta(context.Background(), tc.sats, *tc.delta)
			} else {
				_, err = d.Screen(tc.sats)
			}
			if err == nil {
				t.Fatal("expected a validation error")
			}
			if st := pl.Stats(); st.Gets == 0 || st.Outstanding() != 0 {
				t.Errorf("pool gets = %d, outstanding = %d after rejected input, want > 0 and 0", st.Gets, st.Outstanding())
			}
		})
	}
}

// TestShardedFallbacks covers the degenerate paths: populations the sizing
// model keeps whole, and explicit single-shard requests, must run the plain
// inner detector relabelled with Stats.Shards = 1.
func TestShardedFallbacks(t *testing.T) {
	const span = 900.0
	sats := seededEncounterPopulation(7, span)

	for name, cfg := range map[string]Config{
		// Model-driven: 48 objects is far below one 32 MiB shard.
		"model-driven": {ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: span, Workers: 2},
		"forced-one":   {ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: span, Workers: 2, Shards: 1},
	} {
		t.Run(name, func(t *testing.T) {
			res, err := NewSharded(cfg, VariantGrid).Screen(sats)
			if err != nil {
				t.Fatal(err)
			}
			if res.Variant != VariantSharded {
				t.Errorf("fallback variant = %q, want %q (relabelled)", res.Variant, VariantSharded)
			}
			if res.Stats.Shards != 1 {
				t.Errorf("fallback Stats.Shards = %d, want 1", res.Stats.Shards)
			}
		})
	}

	t.Run("forced-shards-peak-bounded", func(t *testing.T) {
		base := Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: span, Workers: 2}
		ref, err := NewGrid(base).Screen(sats)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Shards = 6
		res, err := NewSharded(cfg, VariantGrid).Screen(sats)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Shards < 2 {
			t.Fatalf("Stats.Shards = %d, want ≥2", res.Stats.Shards)
		}
		if res.Stats.GridSlots <= 0 || res.Stats.GridSlots > ref.Stats.GridSlots {
			t.Errorf("per-shard peak GridSlots = %d, want in (0, %d] (bounded by the unsharded grid)",
				res.Stats.GridSlots, ref.Stats.GridSlots)
		}
	})
}

// TestShardedUnknownInner pins the screen-time registry resolution error.
func TestShardedUnknownInner(t *testing.T) {
	_, err := NewSharded(Config{DurationSeconds: 60}, Variant("no-such-variant")).Screen(nil)
	if err == nil {
		t.Fatal("expected unknown-inner-variant error")
	}
}
