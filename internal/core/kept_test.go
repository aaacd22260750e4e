package core

// What a session keeps of its population between delta passes under test:
// the ID index while the membership stands, the largest apogee raised by the
// dirty objects and recomputed when its holder is lowered, and a pass that
// readies only what it solves or lists on tables whose other entries hold
// anything.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/lockfree"
	"repro/internal/mathx"
	"repro/internal/pool"
	"repro/internal/propagation"
)

// keptChain screens a hybrid session over passes each change returns, checks
// every pass against a fresh screen and the session's index against sats,
// and returns each pass's TrackDropped.
func keptChain(t *testing.T, sess *Session, sats *[]propagation.Satellite, changes []func() Pass, check func(round int, res *Result)) []string {
	t.Helper()
	ctx := context.Background()
	det := newHybrid(Config{DurationSeconds: 600, Workers: 2})
	var drops []string
	for round, change := range changes {
		p := change()
		res, err := sess.Screen(ctx, *sats, p)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		fresh, err := det.ScreenContext(ctx, *sats)
		if err != nil {
			t.Fatal(err)
		}
		assertConjunctionsEqual(t, fmt.Sprintf("round %d", round), res.Conjunctions, fresh.Conjunctions)
		if round > 0 {
			for i := range *sats {
				if at, ok := sess.idx[(*sats)[i].ID]; !ok || int(at) != i || sess.ids[i] != (*sats)[i].ID {
					t.Fatalf("round %d: the index puts ID %d at %d (present %v), the population at %d", round, (*sats)[i].ID, at, ok, i)
				}
			}
		}
		if check != nil {
			check(round, res)
		}
		drops = append(drops, res.Stats.TrackDropped)
	}
	return drops
}

// TestSessionKeptIndex: a same-length pass with two objects' places swapped
// — one of them nudged and dirty, the other clean — has the IDs of no pass
// before in that order: the session rebuilds its index, drops the track for
// "membership", and equals a fresh screen, as do the tracked passes around it.
func TestSessionKeptIndex(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sess, err := NewSession(VariantHybrid, Config{DurationSeconds: 600, Workers: 2, Pool: pool.New()})
	if err != nil {
		t.Fatal(err)
	}
	sats := denseShellPopulation(64, 5)
	nudge := func(i int) int32 {
		sats = append([]propagation.Satellite(nil), sats...)
		el := sats[i].Elements
		el.MeanAnomaly = mathx.NormalizeAngle(el.MeanAnomaly + 2e-4)
		sats[i] = propagation.MustSatellite(sats[i].ID, el)
		return sats[i].ID
	}
	delta := func(i int) func() Pass {
		return func() Pass { return Pass{Epoch: epoch, Dirty: []int32{nudge(i)}, Covered: true} }
	}
	drops := keptChain(t, sess, &sats, []func() Pass{
		func() Pass { return Pass{Epoch: epoch} },
		delta(1), delta(2),
		func() Pass {
			id := nudge(3)
			sats[3], sats[40] = sats[40], sats[3]
			return Pass{Epoch: epoch, Dirty: []int32{id}, Covered: true}
		},
		delta(4), delta(40),
	}, func(round int, res *Result) {
		if tracked := res.Stats.TrackedObjects > 0; tracked != (round == 2 || round >= 4) {
			t.Fatalf("round %d: %d rows read", round, res.Stats.TrackedObjects)
		}
	})
	if want := []string{"", "", "", "membership", "", ""}; fmt.Sprint(drops) != fmt.Sprint(want) {
		t.Fatalf("TrackDropped %q, want %q", drops, want)
	}
}

// TestSessionKeptApogee: X, the object with the largest apogee, raises it
// past the cube; another object lowers its own; X is lowered back, then by
// 7 m more, so the largest is another's or X's new one. After every pass the
// session's apogee is the population's — so the cube's half-extent,
// RequiredHalfExtent of it, is the one a fresh screen sizes — and the track
// is dropped for "geometry" exactly when the key layout moves.
func TestSessionKeptApogee(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sess, err := NewSession(VariantHybrid, Config{DurationSeconds: 600, Workers: 2, Pool: pool.New()})
	if err != nil {
		t.Fatal(err)
	}
	sats := denseShellPopulation(64, 7)
	top, at := largestApogee(sats)
	x, y, z := int(at), (int(at)+5)%len(sats), (int(at)+9)%len(sats)
	orig := sats[x].Elements
	set := func(i int, sma, ecc float64) func() Pass {
		return func() Pass {
			sats = append([]propagation.Satellite(nil), sats...)
			el := sats[i].Elements
			el.SemiMajorAxis, el.Eccentricity = sma, ecc
			sats[i] = propagation.MustSatellite(sats[i].ID, el)
			return Pass{Epoch: epoch, Dirty: []int32{sats[i].ID}, Covered: true}
		}
	}
	raised := (top + 3000 + orig.PerigeeRadius()) / 2 // apogee top + 3,000 km: about 40 cells past the cube
	raisedEcc := 1 - orig.PerigeeRadius()/raised
	drops := keptChain(t, sess, &sats, []func() Pass{
		func() Pass { return Pass{Epoch: epoch} },
		set(y, sats[y].Elements.SemiMajorAxis, sats[y].Elements.Eccentricity),
		set(x, raised, raisedEcc),
		set(z, sats[z].Elements.SemiMajorAxis-1, sats[z].Elements.Eccentricity),
		set(x, orig.SemiMajorAxis, orig.Eccentricity),
		set(x, orig.SemiMajorAxis-0.007, orig.Eccentricity),
	}, func(round int, _ *Result) {
		if want, _ := largestApogee(sats); round > 0 && sess.apogee != want {
			t.Fatalf("round %d: the session's apogee %v km, the population's %v", round, sess.apogee, want)
		}
	})
	if want := []string{"", "", "geometry", "", "geometry", ""}; fmt.Sprint(drops) != fmt.Sprint(want) {
		t.Fatalf("TrackDropped %q, want %q", drops, want)
	}
}

// TestSessionKeptSeedsWhatItSolves: every delta pass draws its warm-start
// cache and gate table poisoned — NaN states, a foreign ID and NaN bounds in
// every row — and must seed the states of what it solves (the dirty objects
// and the unread rows: on the pass that opens the track, every object) and
// write the rows of what it lists, and nothing else. A solve from a NaN
// state falls back to a cold one and a step later the state has healed, so
// neither the results nor the cache after the pass can tell: the test keeps
// a view of the cache it put back and reads it at step 0's observer call,
// which on one worker runs between the step's scan and the next build. Each
// pass equals a trackless pass, exact counters included.
func TestSessionKeptSeedsWhatItSolves(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	pl := pool.New()
	sess, err := NewSession(VariantHybrid, Config{DurationSeconds: 600, Workers: 1, Pool: pl})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	trackless := newHybrid(Config{DurationSeconds: 600, Workers: 2})
	sats := denseShellPopulation(96, 11)
	n := len(sats)
	var kc []propagation.KeplerCache
	poison := func() {
		pl.Drain()
		kc = pl.GetKeplerCache(n)
		for i := range kc {
			kc[i] = propagation.KeplerCache{E: math.NaN(), DeltaE: math.NaN()}
		}
		pl.PutKeplerCache(kc)
		rows := pl.GetGateRows(n)
		for i := range rows {
			rows[i] = lockfree.GateRow{ID: lockfree.MaxID, RDot: float32(math.NaN()), Reach: float32(math.NaN())}
		}
		pl.PutGateRows(rows)
	}
	if _, err := sess.Screen(ctx, sats, Pass{Epoch: epoch}); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 4; round++ {
		sats = append([]propagation.Satellite(nil), sats...)
		var dirty []int32
		for _, i := range []int{round, 30 + round, 60 + round} {
			el := sats[i].Elements
			el.MeanAnomaly = mathx.NormalizeAngle(el.MeanAnomaly + 3e-4)
			sats[i] = propagation.MustSatellite(sats[i].ID, el)
			dirty = append(dirty, sats[i].ID)
		}
		solved := func(i int) bool { return round == 1 || slices.Contains(dirty, sats[i].ID) }
		ref, err := trackless.ScreenDelta(ctx, sats, DeltaInput{Prior: sess.prior, Dirty: dirty})
		if err != nil {
			t.Fatal(err)
		}
		poison()
		seededAtStep0 := ObserverFuncs{Step: func(s StepInfo) {
			for i := range sats {
				if seeded := !math.IsNaN(kc[i].DeltaE); s.Step == 0 && seeded != solved(i) {
					t.Errorf("round %d: object %d solved %v, its warm-start state seeded %v", round, i, solved(i), seeded)
				}
			}
		}}
		res, err := sess.Screen(ctx, sats, Pass{Epoch: epoch, Dirty: dirty, Covered: true, Observer: seededAtStep0})
		if err != nil {
			t.Fatal(err)
		}
		assertConjunctionsEqual(t, fmt.Sprintf("round %d", round), res.Conjunctions, ref.Conjunctions)
		st := res.Stats
		if st.CandidatePairs != ref.Stats.CandidatePairs || st.OutOfBounds != ref.Stats.OutOfBounds || st.TrackDropped != "" {
			t.Fatalf("round %d: candidates/out-of-bounds %d/%d, trackless pass %d/%d; dropped %q",
				round, st.CandidatePairs, st.OutOfBounds, ref.Stats.CandidatePairs, ref.Stats.OutOfBounds, st.TrackDropped)
		}
		if want := map[int]int{1: 0, 2: n - 3, 3: n - 3, 4: n - 3}[round]; st.TrackedObjects != want {
			t.Fatalf("round %d: %d rows read, want %d", round, st.TrackedObjects, want)
		}
		rows, untouched := pl.GetGateRows(n), 0
		for i := range sats {
			if id := rows[i].ID; id == lockfree.MaxID && !solved(i) {
				untouched++
			} else if id != sats[i].ID {
				t.Fatalf("round %d: object %d (solved %v) has gate row ID %d", round, i, solved(i), id)
			}
		}
		if round > 1 && untouched == 0 {
			t.Fatalf("round %d: every gate row written", round)
		}
		pl.PutGateRows(rows)
	}
}
