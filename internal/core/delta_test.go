package core

// Delta-vs-full differential battery: an incremental screen chained over a
// random sequence of catalogue deltas must produce the same conjunction set
// as a fresh full screen of the final population. The chain feeds each
// round's incremental output into the next round's prior, so drift — a
// stale pair retained, a fresh pair missed, a removed object leaking
// through — compounds and is caught. Runs under -race in CI (the race job
// covers internal/core).

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/lockfree"
	"repro/internal/mathx"
	"repro/internal/orbit"
	"repro/internal/pool"
	"repro/internal/propagation"
)

// mutateOnce applies one synthetic catalogue delta in place: a couple of
// removals, a couple of element updates, one fresh shell object, and one
// engineered sub-threshold companion of a surviving (clean) object — the
// case where a *new* dirty object must be caught conjuncting with an
// untouched one. Returns the new population and the dirty/removed ID sets.
func mutateOnce(rng *mathx.SplitMix64, sats []propagation.Satellite, nextID *int32, span float64) ([]propagation.Satellite, []int32, []int32) {
	var dirty, removed []int32
	touched := make(map[int32]bool)

	for k := 0; k < 2 && len(sats) > 6; k++ {
		i := int(rng.Uint64() % uint64(len(sats)))
		if touched[sats[i].ID] {
			continue
		}
		touched[sats[i].ID] = true
		removed = append(removed, sats[i].ID)
		sats = append(sats[:i], sats[i+1:]...)
	}
	for k := 0; k < 2; k++ {
		i := int(rng.Uint64() % uint64(len(sats)))
		if touched[sats[i].ID] {
			continue
		}
		touched[sats[i].ID] = true
		el := sats[i].Elements
		el.MeanAnomaly = mathx.NormalizeAngle(el.MeanAnomaly + rng.UniformRange(-0.5, 0.5))
		sats[i] = propagation.MustSatellite(sats[i].ID, el)
		dirty = append(dirty, sats[i].ID)
	}

	// One plain shell add.
	el := orbit.Elements{
		SemiMajorAxis: rng.UniformRange(6950, 7250),
		Eccentricity:  rng.UniformRange(0, 0.01),
		Inclination:   rng.UniformRange(0.1, 3.0),
		RAAN:          rng.UniformRange(0, mathx.TwoPi),
		ArgPerigee:    rng.UniformRange(0, mathx.TwoPi),
		MeanAnomaly:   rng.UniformRange(0, mathx.TwoPi),
	}
	sats = append(sats, propagation.MustSatellite(*nextID, el))
	dirty = append(dirty, *nextID)
	*nextID++

	// One engineered companion: same orbit as a surviving clean object but
	// radially offset below the 2 km threshold, phase-matched so the mean
	// anomalies coincide mid-window — a guaranteed fresh conjunction whose
	// other member is clean.
	target := -1
	for i := range sats {
		if !touched[sats[i].ID] && sats[i].Elements.Eccentricity < 0.05 {
			target = i
			break
		}
	}
	if target >= 0 {
		x := sats[target]
		tMeet := rng.UniformRange(span/4, 3*span/4)
		sats = append(sats, propagation.MustSatellite(*nextID, companionOf(x, tMeet)))
		dirty = append(dirty, *nextID)
		*nextID++
	}
	return sats, dirty, removed
}

// assertConjunctionsEqual demands got and want describe the same
// conjunction list: identical (A, B, Step) sequences with TCA/PCA agreeing
// to refinement tolerance. The delta path refines exactly the pairs the
// full path refines (for dirty pairs) or copies prior values computed by
// the identical code path (for clean pairs), so agreement is tight.
func assertConjunctionsEqual(t *testing.T, name string, got, want []Conjunction) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d conjunctions, want %d\ngot:  %v\nwant: %v", name, len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.A != w.A || g.B != w.B || g.Step != w.Step ||
			math.Abs(g.TCA-w.TCA) > 1e-9 || math.Abs(g.PCA-w.PCA) > 1e-9 {
			t.Fatalf("%s: conjunction %d diverged:\ngot:  %+v\nwant: %+v", name, i, g, w)
		}
	}
}

// dirtyCandidates counts the (pair, step) candidates of a fresh full sampling
// of sats under the variant's configuration that have a dirty member — what a
// delta pass must collect, no more and no fewer. A delta pass's build has no
// radii, so its gate keeps every pair, and the count is of an ungated sampling.
func dirtyCandidates(t *testing.T, variant Variant, cfg Config, sats []propagation.Satellite, dirty []int32) int {
	t.Helper()
	cfg.ablation.noGate = true
	sps := cfg.SecondsPerSample
	if sps <= 0 {
		sps = newDetector(variant, cfg).sps
	}
	r, err := newRun(context.Background(), cfg, sats, sps, knotSeconds, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.release()
	if err := r.sampleAllSteps(); err != nil {
		t.Fatal(err)
	}
	isDirty := make(map[int32]bool, len(dirty))
	for _, id := range dirty {
		isDirty[id] = true
	}
	n := 0
	for _, key := range r.keys {
		if p := lockfree.UnpackPair(key); isDirty[p.A] || isDirty[p.B] {
			n++
		}
	}
	return n
}

func TestScreenDeltaMatchesFullScreen(t *testing.T) {
	cases := []struct {
		name    string
		variant Variant
		cfg     Config
		span    float64
	}{
		{"grid", VariantGrid, Config{halfExtentKm: 9000}, 1800},
		{"hybrid", VariantHybrid, Config{halfExtentKm: 9000}, 1800},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			span := tc.span
			pl := pool.New()
			cfg := tc.cfg
			cfg.DurationSeconds, cfg.Workers, cfg.Pool = span, 4, pl
			desc, _ := Lookup(tc.variant)
			det := desc.New(cfg).(DeltaDetector)
			ctx := context.Background()

			// The engineered encounters plus enough shell objects that the
			// four-object deltas of mutateOnce stay below the crossover.
			sats := seededEncounterPopulation(11, span)
			for _, s := range denseShellPopulation(32, 12) {
				sats = append(sats, propagation.MustSatellite(int32(len(sats)), s.Elements))
			}
			nextID := int32(len(sats))
			full, err := det.ScreenContext(ctx, sats)
			if err != nil {
				t.Fatal(err)
			}
			prior := full.Conjunctions
			// Every round runs a second time through a session, so one chain
			// with a key track lives across all of them.
			epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
			sess, err := NewSession(tc.variant, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Screen(ctx, sats, Pass{Epoch: epoch}); err != nil {
				t.Fatal(err)
			}

			rng := mathx.NewSplitMix64(23)
			var twins [2]int32
			for round := 0; round < 7; round++ {
				var dirty, removed []int32
				switch round {
				case 4:
					// Removal only: nothing is dirty, so nothing is sampled.
					removed = []int32{sats[3].ID, sats[9].ID}
					sats = append(sats[:3:3], append(sats[4:9:9], sats[10:]...)...)
				case 5:
					// Two new objects on one orbit 0.8 km apart radially, both
					// dirty and in the same or adjacent cells at every step: the
					// pair is swept once, like any other, and must be reported.
					el := sats[0].Elements
					el.Inclination += 0.3
					twins = [2]int32{nextID, nextID + 1}
					sats = append(sats, propagation.MustSatellite(twins[0], el))
					el.SemiMajorAxis += 0.8
					sats = append(sats, propagation.MustSatellite(twins[1], el))
					dirty = twins[:]
					nextID += 2
				case 6:
					// Above the crossover: a third of the objects.
					for i := 0; i < len(sats); i += 3 {
						el := sats[i].Elements
						el.MeanAnomaly = mathx.NormalizeAngle(el.MeanAnomaly + 0.01)
						sats[i] = propagation.MustSatellite(sats[i].ID, el)
						dirty = append(dirty, sats[i].ID)
					}
				default:
					sats, dirty, removed = mutateOnce(rng, sats, &nextID, span)
				}

				fresh, err := det.ScreenContext(ctx, sats)
				if err != nil {
					t.Fatal(err)
				}
				inc, err := det.ScreenDelta(ctx, sats, DeltaInput{Prior: prior, Dirty: dirty, Removed: removed})
				if err != nil {
					t.Fatal(err)
				}
				assertConjunctionsEqual(t, tc.name, inc.Conjunctions, fresh.Conjunctions)
				chained, err := sess.Screen(ctx, sats, Pass{Epoch: epoch, Dirty: dirty, Removed: removed, Covered: true})
				if err != nil {
					t.Fatal(err)
				}
				assertConjunctionsEqual(t, tc.name+" session", chained.Conjunctions, fresh.Conjunctions)
				// Round 0 primes a track nothing preceded; every later round
				// adds or removes an object, which drops it, and the last is
				// above the crossover. No round gets to read a row.
				wantDrop := "membership"
				switch round {
				case 0:
					wantDrop = ""
				case 6:
					wantDrop = "crossover"
				}
				if st := chained.Stats; st.TrackDropped != wantDrop || st.TrackedObjects != 0 ||
					st.CandidatePairs != inc.Stats.CandidatePairs || st.OutOfBounds != inc.Stats.OutOfBounds {
					t.Fatalf("round %d: session pass dropped %q (want %q), read %d rows, %d candidates (stateless pass %d)",
						round, st.TrackDropped, wantDrop, st.TrackedObjects, st.CandidatePairs, inc.Stats.CandidatePairs)
				}
				if kept := sess.track != nil; kept != (round != 6) {
					t.Fatalf("round %d: session holds a track = %v", round, kept)
				}
				if inc.Stats.DirtyObjects != len(dirty) {
					t.Fatalf("round %d: DirtyObjects = %d, want %d", round, inc.Stats.DirtyObjects, len(dirty))
				}
				wantCand, wantSteps := dirtyCandidates(t, tc.variant, cfg, sats, dirty), fresh.Stats.Steps
				switch round {
				case 4:
					wantSteps = 0
				case 6:
					wantCand = fresh.Stats.CandidatePairs
					if inc.Stats.PriorRetained != 0 {
						t.Fatalf("round %d: a pass above the crossover retained %d prior conjunctions", round, inc.Stats.PriorRetained)
					}
				}
				if inc.Stats.CandidatePairs != wantCand {
					t.Fatalf("round %d: delta emitted %d candidates, the fresh screen has %d with a dirty member",
						round, inc.Stats.CandidatePairs, wantCand)
				}
				if inc.Stats.Steps != wantSteps {
					t.Fatalf("round %d: %d steps sampled, want %d", round, inc.Stats.Steps, wantSteps)
				}
				if round == 5 {
					found := 0
					for _, c := range inc.Conjunctions {
						if c.A == twins[0] && c.B == twins[1] {
							found++
						}
					}
					if found == 0 {
						t.Fatalf("round %d: dirty–dirty pair %v not reported", round, twins)
					}
				}
				// Chain: the incremental output becomes the next prior.
				prior = inc.Conjunctions
			}
			if out := pl.Stats().Outstanding(); out != 0 {
				t.Fatalf("pool leak: %d structures outstanding", out)
			}
		})
	}
}

func TestScreenDeltaValidation(t *testing.T) {
	sats := seededEncounterPopulation(3, 600)
	det := newGrid(Config{DurationSeconds: 600, Workers: 2})
	ctx := context.Background()

	// A "removed" ID still present in the population is a caller bug.
	if _, err := det.ScreenDelta(ctx, sats, DeltaInput{Removed: []int32{sats[0].ID}}); err == nil {
		t.Fatal("removed-but-present ID accepted")
	}
	// Out-of-range IDs are refused.
	if _, err := det.ScreenDelta(ctx, sats, DeltaInput{Dirty: []int32{-1}}); err == nil {
		t.Fatal("negative dirty ID accepted")
	}

	// An empty delta re-screens nothing and returns the prior unchanged.
	prior := []Conjunction{{A: 1, B: 2, Step: 3, TCA: 4, PCA: 0.5}}
	res, err := det.ScreenDelta(ctx, sats, DeltaInput{Prior: prior})
	if err != nil {
		t.Fatal(err)
	}
	assertConjunctionsEqual(t, "empty delta", res.Conjunctions, prior)
	if res.Stats.PriorRetained != 1 {
		t.Fatalf("PriorRetained = %d, want 1", res.Stats.PriorRetained)
	}
}

func TestScreenDeltaDegeneratePopulation(t *testing.T) {
	det := newGrid(Config{DurationSeconds: 600})
	prior := []Conjunction{
		{A: 1, B: 2, TCA: 10, PCA: 0.5},
		{A: 2, B: 3, TCA: 20, PCA: 0.7},
	}
	one := []propagation.Satellite{seededEncounterPopulation(3, 600)[0]}
	res, err := det.ScreenDelta(context.Background(), one, DeltaInput{Prior: prior, Removed: []int32{3}})
	if err != nil {
		t.Fatal(err)
	}
	// The pair touching removed object 3 is dropped; the untouched pair is
	// retained even though the population cannot re-confirm it.
	if len(res.Conjunctions) != 1 || res.Conjunctions[0].A != 1 {
		t.Fatalf("degenerate merge = %v", res.Conjunctions)
	}
}

// edgeTwins returns an equatorial pair 0.8 km apart radially whose argument
// of latitude is theta at tMeet. In a 7000 km half extent of 9.8 km cells
// (in-cube x from −7007 km to +7016.8 km) the outer one, at 7007.5 km, spends
// the 22 s around theta = 0 in the outermost shell of cells and the 22 s
// around theta = π outside the cube; the inner one never leaves.
func edgeTwins(idOuter, idInner int32, theta, tMeet float64) (outer, inner propagation.Satellite) {
	at := func(a float64) orbit.Elements {
		el := orbit.Elements{SemiMajorAxis: a, Eccentricity: 1e-5, Inclination: 0.01}
		el.MeanAnomaly = mathx.NormalizeAngle(theta - el.MeanMotion()*tMeet)
		return el
	}
	return propagation.MustSatellite(idOuter, at(7007.5)), propagation.MustSatellite(idInner, at(7006.7))
}

// TestScreenDeltaAtCubeEdge: stamps on the outermost shell of cells are
// clipped to the cube like the scan's neighbourhoods, and a dirty object
// outside the cube stamps nothing and is counted — so the out-of-bounds
// tally and the conjunctions are the full screen's.
func TestScreenDeltaAtCubeEdge(t *testing.T) {
	const span = 1800.0
	for _, variant := range []Variant{VariantGrid, VariantHybrid} {
		t.Run(string(variant), func(t *testing.T) {
			pl := pool.New()
			desc, _ := Lookup(variant)
			det := desc.New(Config{DurationSeconds: span, SecondsPerSample: 1, halfExtentKm: 7000, Workers: 2, Pool: pl}).(DeltaDetector)
			ctx := context.Background()

			// A background well inside the cube, the two clean inner twins in
			// place, and the two outer objects a quarter orbit away from
			// where the delta will put them.
			sats := denseShellPopulation(24, 5)
			for i := range sats {
				el := sats[i].Elements
				el.SemiMajorAxis -= 50
				sats[i] = propagation.MustSatellite(sats[i].ID, el)
			}
			onShell, shellTwin := edgeTwins(100, 101, 0, span/2)
			leaves, leavesTwin := edgeTwins(102, 103, math.Pi, span/2)
			before100, _ := edgeTwins(100, 101, math.Pi/2, span/2)
			before102, _ := edgeTwins(102, 103, -math.Pi/2, span/2)
			sats = append(sats, before100, shellTwin, before102, leavesTwin)
			full, err := det.ScreenContext(ctx, sats)
			if err != nil {
				t.Fatal(err)
			}
			sats[24], sats[26] = onShell, leaves

			fresh, err := det.ScreenContext(ctx, sats)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := det.ScreenDelta(ctx, sats, DeltaInput{Prior: full.Conjunctions, Dirty: []int32{100, 102}})
			if err != nil {
				t.Fatal(err)
			}
			assertConjunctionsEqual(t, string(variant), inc.Conjunctions, fresh.Conjunctions)
			if oob := fresh.Stats.OutOfBounds; oob < 10 || oob > 40 || inc.Stats.OutOfBounds != oob {
				t.Fatalf("OutOfBounds = %d, full screen %d (want equal, about 22: object 102 around t = %g s)",
					inc.Stats.OutOfBounds, oob, span/2)
			}
			// (The exit pair's closest approach falls in the out-of-cube window,
			// which neither screen samples; equality above is its check.)
			met := false
			for _, c := range inc.Conjunctions {
				met = met || (c.A == 100 && c.B == 101 && math.Abs(c.TCA-span/2) < 15)
			}
			if !met {
				t.Fatal("the pair meeting in the outermost shell of cells was not reported")
			}
			if out := pl.Stats().Outstanding(); out != 0 {
				t.Fatalf("pool leak: %d structures outstanding", out)
			}
		})
	}
}

// stepRecorder is an Observer that records the step indices it is told of.
type stepRecorder struct {
	mu    sync.Mutex
	steps []StepInfo
}

func (o *stepRecorder) OnStep(s StepInfo) {
	o.mu.Lock()
	o.steps = append(o.steps, s)
	o.mu.Unlock()
}

func (o *stepRecorder) OnPhase(PhaseInfo) {}

// TestScreenDeltaObserverSeesEveryStepInOrder: a delta pass's steps reach the
// observer in step order on either ring, each with its in-cube count, not the
// count of entries the stamp filter let through (run it under -race: the
// build's two ranges share the step's filter and entry buffer across four
// workers).
func TestScreenDeltaObserverSeesEveryStepInOrder(t *testing.T) {
	const span = 300.0
	sats := denseShellPopulation(400, 9)
	for _, cfg := range []Config{{}, {ablation: ablation{oneSlotRing: true}}} {
		obs := &stepRecorder{}
		cfg.DurationSeconds, cfg.Workers, cfg.Observer, cfg.Pool = span, 4, obs, pool.New()
		dirty := []int32{sats[3].ID, sats[200].ID, sats[399].ID}
		res, err := newGrid(cfg).ScreenDelta(context.Background(), sats, DeltaInput{Dirty: dirty})
		if err != nil {
			t.Fatal(err)
		}
		steps := stepCount(span, DefaultGridSeconds)
		if len(obs.steps) != steps || res.Stats.Steps != steps {
			t.Fatalf("%d OnStep calls, Stats.Steps = %d, want %d", len(obs.steps), res.Stats.Steps, steps)
		}
		for i, s := range obs.steps {
			if s.Step != i || s.Completed != i+1 || s.Steps != steps || s.GridEntries != len(sats) {
				t.Fatalf("OnStep call %d = %+v", i, s)
			}
		}
	}
}

// TestScreenDeltaPoolDraw: a delta pass draws what a full screen's step loop
// draws — the entry ring, the scan's sort buffer and the gate rows — but no
// motion rows, and hands everything back on every exit: completion and
// cancellation mid-window. The cancelled pass is a session's: the session
// stays usable and its next pass equals a fresh screen.
func TestScreenDeltaPoolDraw(t *testing.T) {
	const span = 300.0
	sats := denseShellPopulation(2000, 13)
	dirty := []int32{sats[1].ID, sats[700].ID}
	base := Config{DurationSeconds: span, Workers: 2}
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

	exits := map[string]func(t *testing.T, cfg Config){
		"completed": func(t *testing.T, cfg Config) {
			if _, err := newGrid(cfg).ScreenDelta(context.Background(), sats, DeltaInput{Dirty: dirty}); err != nil {
				t.Fatal(err)
			}
		},
		"cancelled": func(t *testing.T, cfg Config) {
			// The session's full screen runs on a pool of its own: the free
			// lists probed below are to show what the delta passes drew.
			pl := cfg.Pool
			cfg.Pool = pool.New()
			sess, err := NewSession(VariantHybrid, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Screen(context.Background(), sats, Pass{Epoch: epoch}); err != nil {
				t.Fatal(err)
			}
			sess.cfg.Pool = pl
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			p := Pass{Epoch: epoch, Dirty: dirty, Covered: true, Observer: &cancelAtStep{at: 5, cancel: cancel}}
			if _, err := sess.Screen(ctx, sats, p); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if out := pl.Stats().Outstanding(); out != 0 {
				t.Fatalf("%d pooled structures outstanding after the failed pass", out)
			}
			// The session's next pass over the same delta equals a fresh screen.
			inc, err := sess.Screen(context.Background(), sats, Pass{Epoch: epoch, Dirty: dirty, Covered: true})
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := sess.desc.New(cfg).ScreenContext(context.Background(), sats)
			if err != nil {
				t.Fatal(err)
			}
			assertConjunctionsEqual(t, "pass after a failed one", inc.Conjunctions, fresh.Conjunctions)
			if inc.Stats.TrackedObjects != 0 || inc.Stats.TrackBytes == 0 {
				t.Fatalf("pass after a failed priming pass read %d rows of a %d B track", inc.Stats.TrackedObjects, inc.Stats.TrackBytes)
			}
		},
	}
	for name, exit := range exits {
		t.Run(name, func(t *testing.T) {
			pl := pool.New()
			cfg := base
			cfg.Pool = pl
			exit(t, cfg)
			if out := pl.Stats().Outstanding(); out != 0 {
				t.Fatalf("%d pooled structures outstanding", out)
			}
			// What the pass drew is what it put back: empty the free lists,
			// counting.
			drained := func(get func()) (drawn int) {
				for {
					before := pl.Stats().Hits
					get()
					if pl.Stats().Hits == before {
						return drawn
					}
					drawn++
				}
			}
			if drawn := drained(func() { pl.GetCellBuf(1) }); drawn != 3 {
				t.Errorf("the pass drew %d cell buffers, want a ring of 2 and the scan's one", drawn)
			}
			if drawn := drained(func() { pl.GetGateRows(len(sats)) }); drawn != 1 {
				t.Errorf("the pass drew %d gate tables, want 1", drawn)
			}
			if drawn := drained(func() { pl.GetMotionRows(len(sats)) }); drawn != 0 {
				t.Errorf("the pass drew %d motion tables, want none", drawn)
			}
		})
	}
}

// TestScreenDeltaFalsePositivesChangeNothing: the stamp filter only has to
// pass every entry a dirty object can pair with. With a filter whose one bit
// every key hashes to, every in-cube object reaches the sweep, and the pass
// returns the same candidates and conjunctions as with the sized filter.
func TestScreenDeltaFalsePositivesChangeNothing(t *testing.T) {
	const span = 900.0
	sats := seededEncounterPopulation(11, span)
	for _, s := range denseShellPopulation(32, 12) {
		sats = append(sats, propagation.MustSatellite(int32(len(sats)), s.Elements))
	}
	dirty := []int32{sats[16].ID, sats[19].ID, sats[22].ID} // one member of three engineered encounters
	for _, variant := range []Variant{VariantGrid, VariantHybrid} {
		t.Run(string(variant), func(t *testing.T) {
			cfg := Config{DurationSeconds: span, Workers: 2, halfExtentKm: 9000, Pool: pool.New()}
			d := newDetector(variant, cfg)
			delta := &DeltaInput{Dirty: dirty}
			pass := func(saturate bool) (*Result, int) {
				r, err := newRun(context.Background(), cfg, sats, d.sps, knotSeconds, delta)
				if err != nil {
					t.Fatal(err)
				}
				defer r.release()
				if saturate {
					r.stampShift = 64 // every key's bit is bit 0, which every step's first stamp sets
				}
				res, err := d.screenRun(r, delta)
				if err != nil {
					t.Fatal(err)
				}
				return res, r.candidates()
			}
			want, swept := pass(false)
			got, sweptAll := pass(true)
			if sweptAll <= swept {
				t.Fatalf("the saturated filter swept %d candidates, the sized one %d: no false positive reached the sweep", sweptAll, swept)
			}
			if got.Stats.CandidatePairs != want.Stats.CandidatePairs {
				t.Fatalf("%d candidates through the saturated filter, %d through the sized one", got.Stats.CandidatePairs, want.Stats.CandidatePairs)
			}
			assertConjunctionsEqual(t, string(variant), got.Conjunctions, want.Conjunctions)
			if len(want.Conjunctions) == 0 {
				t.Fatal("no conjunction to compare")
			}
		})
	}
}
