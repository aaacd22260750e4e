package core

// The key track's window boxes and their index under test: what a session's
// delta pass visits, a chain across the index's life (a rebuild, a row moved
// half an orbit, a row gone unencodable), and the pass's cost at 8k and 131k.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/lockfree"
	"repro/internal/mathx"
	"repro/internal/orbit"
	"repro/internal/pool"
	"repro/internal/population"
	"repro/internal/propagation"
	"repro/internal/spatial"
)

// deltaNudger draws seeded deltas over sats in place: k distinct objects per
// delta, each a little further along its orbit, as the service's writer does.
type deltaNudger struct {
	sats []propagation.Satellite
	rng  *mathx.SplitMix64
}

func (d *deltaNudger) next(k int) []int32 {
	picked := make(map[int]bool, k)
	dirty := make([]int32, 0, k)
	for len(dirty) < k {
		i := int(d.rng.Uint64() % uint64(len(d.sats)))
		if picked[i] {
			continue
		}
		picked[i] = true
		el := d.sats[i].Elements
		el.MeanAnomaly = mathx.NormalizeAngle(el.MeanAnomaly + 1e-3*float64(len(dirty)+1))
		d.sats[i] = propagation.MustSatellite(d.sats[i].ID, el)
		dirty = append(dirty, d.sats[i].ID)
	}
	return dirty
}

// TestDeltaPassVisitsScale: VisitedObjectSteps, an exact counter, on one
// seeded 16-object delta of the KDE population under the hybrid at 4k and
// 32k. A trackless pass keys every object at every step; a primed session's
// pass keys the dirty objects and the few whose window boxes meet theirs,
// under 5 % of N·steps, and finds exactly the trackless pass's candidates.
func TestDeltaPassVisitsScale(t *testing.T) {
	const span, k = 600.0, 16
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, n := range []int{4000, 32000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			ctx := context.Background()
			sats := population.MustGenerate(population.Config{N: n, Seed: 1})
			cfg := Config{DurationSeconds: span, Workers: 2, Pool: pool.New()}
			sess, err := NewSession(VariantHybrid, cfg)
			if err != nil {
				t.Fatal(err)
			}
			nudger := &deltaNudger{sats: sats, rng: mathx.NewSplitMix64(7)}
			if _, err := sess.Screen(ctx, sats, Pass{Epoch: epoch}); err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Screen(ctx, sats, Pass{Epoch: epoch, Dirty: nudger.next(k), Covered: true}); err != nil {
				t.Fatal(err)
			}
			dirty, prior := nudger.next(k), sess.prior
			inc, err := sess.Screen(ctx, sats, Pass{Epoch: epoch, Dirty: dirty, Covered: true})
			if err != nil {
				t.Fatal(err)
			}
			trackless, err := newHybrid(cfg).ScreenDelta(ctx, sats, DeltaInput{Prior: prior, Dirty: dirty})
			if err != nil {
				t.Fatal(err)
			}
			assertConjunctionsEqual(t, "session pass", inc.Conjunctions, trackless.Conjunctions)
			st, ref := inc.Stats, trackless.Stats
			if st.CandidatePairs != ref.CandidatePairs || st.GridCandidates != ref.GridCandidates {
				t.Fatalf("session pass: %d/%d candidates, trackless pass %d/%d", st.CandidatePairs, st.GridCandidates, ref.CandidatePairs, ref.GridCandidates)
			}
			all := n * st.Steps
			if ref.VisitedObjectSteps != all {
				t.Fatalf("trackless pass visited %d object-steps, want N·steps = %d", ref.VisitedObjectSteps, all)
			}
			if st.TrackedObjects != n-k || 20*st.VisitedObjectSteps >= all {
				t.Fatalf("session pass: %d rows valid, visited %d object-steps of %d (%.2f %%), want under 5 %%",
					st.TrackedObjects, st.VisitedObjectSteps, all, 100*float64(st.VisitedObjectSteps)/float64(all))
			}
			t.Logf("N = %d: visited %d of %d object-steps (%.2f %%), %d candidates", n, st.VisitedObjectSteps, all,
				100*float64(st.VisitedObjectSteps)/float64(all), st.CandidatePairs)
		})
	}
}

// TestMidSizeDeltaReadsEveryRow: past the boxes' crossover (boxesPay) a
// session pass lists every valid row in every window, entered from its ref,
// and finds a fresh screen's conjunctions and a trackless pass's candidates;
// a small delta after it walks the boxes again, through the refs the large
// pass wrote.
func TestMidSizeDeltaReadsEveryRow(t *testing.T) {
	const n, span = 4000, 600.0
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	ctx := context.Background()
	sats := population.MustGenerate(population.Config{N: n, Seed: 1})
	cfg := Config{DurationSeconds: span, Workers: 2, Pool: pool.New()}
	det := newHybrid(cfg)
	sess, err := NewSession(VariantHybrid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nudger := &deltaNudger{sats: sats, rng: mathx.NewSplitMix64(11)}
	for round, k := range []int{0, 16, n / 16, 16} {
		var dirty []int32
		if k > 0 {
			sats = append([]propagation.Satellite(nil), sats...)
			nudger.sats = sats
			dirty = nudger.next(k)
		}
		fresh, err := det.ScreenContext(ctx, sats)
		if err != nil {
			t.Fatal(err)
		}
		trackless, err := det.ScreenDelta(ctx, sats, DeltaInput{Prior: sess.prior, Dirty: dirty})
		if err != nil {
			t.Fatal(err)
		}
		inc, err := sess.Screen(ctx, sats, Pass{Epoch: epoch, Dirty: dirty, Covered: round > 0})
		if err != nil {
			t.Fatal(err)
		}
		assertConjunctionsEqual(t, fmt.Sprintf("round %d", round), inc.Conjunctions, fresh.Conjunctions)
		if round < 2 {
			continue
		}
		st, ref := inc.Stats, trackless.Stats
		if st.CandidatePairs != ref.CandidatePairs || st.GridCandidates != ref.GridCandidates || st.TrackedObjects != n-k {
			t.Fatalf("round %d: %d/%d candidates, trackless pass %d/%d; %d rows valid, want %d",
				round, st.CandidatePairs, st.GridCandidates, ref.CandidatePairs, ref.GridCandidates, st.TrackedObjects, n-k)
		}
		if all := n * st.Steps; (st.VisitedObjectSteps == all) != !boxesPay(k, n) || (round == 3 && 20*st.VisitedObjectSteps >= all) {
			t.Fatalf("round %d: %d dirty, visited %d of %d object-steps", round, k, st.VisitedObjectSteps, all)
		}
	}
}

// boxesMeet reports whether boxes [alo, ahi] and [blo, bhi] share a cell.
func boxesMeet(alo, ahi, blo, bhi spatial.Coord) bool {
	return alo.X <= bhi.X && blo.X <= ahi.X && alo.Y <= bhi.Y && blo.Y <= ahi.Y && alo.Z <= bhi.Z && blo.Z <= ahi.Z
}

// refOf is row i's current ref for window w: from the overlay if the row was
// rewritten since the last build, else from the index.
func refOf(t *testing.T, tr *keyTrack, w, i int) lockfree.Cell {
	t.Helper()
	refs := tr.index[w]
	if tr.rewritten[i] {
		refs = tr.overlay[w]
	}
	for _, r := range refs {
		if int(r.Lo) == i {
			return r
		}
	}
	t.Fatalf("row %d has no ref for window %d", i, w)
	return lockfree.Cell{}
}

// TestSessionBoxIndexChain chains a hybrid session over update-only deltas
// across the life of its window index, each round checked against a fresh
// screen (bit for bit) and a trackless pass (exact counters). Round 0 primes
// the rows and builds the index. Round 1 moves X half an orbit, onto a
// sub-threshold companion orbit of the clean Y: X's new boxes share no cell
// with its indexed ones. Round 2 updates Y and not X, so X, rewritten since
// the build, must be found through the overlay, not its stale index entry.
// Round 3 lifts U out of the cube for part of the span, so its row becomes
// unencodable; round 4 puts V on U's orbit to meet it while U, clean, is in
// the cube, so U must be solved though its index entry stands. Later rounds
// grow the overlay past its bound, and the pass after the rebuild finds X
// and Y, both rewritten, through the new index. Joins the 50× race list: the
// boxes of one window are written by the workers that own their rows.
func TestSessionBoxIndexChain(t *testing.T) {
	const span = 600.0 // 67 steps of 9 s
	const x, y, u, v = 10, 11, 12, 13
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	pl := pool.New()
	cfg := Config{DurationSeconds: span, Workers: 4, Pool: pl, halfExtentKm: 7300}
	det := newHybrid(cfg)
	sess, err := NewSession(VariantHybrid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	sats := denseShellPopulation(96, 41)
	n := len(sats)
	meet := companionOf(sats[y], span/2)
	away := meet
	away.MeanAnomaly = mathx.NormalizeAngle(away.MeanAnomaly + math.Pi)
	sats[x] = propagation.MustSatellite(sats[x].ID, away)
	if _, err := sess.Screen(ctx, sats, Pass{Epoch: epoch}); err != nil {
		t.Fatal(err)
	}

	nudgeBy := func(i int, dm float64) int32 {
		el := sats[i].Elements
		el.MeanAnomaly = mathx.NormalizeAngle(el.MeanAnomaly + dm)
		sats[i] = propagation.MustSatellite(sats[i].ID, el)
		return sats[i].ID
	}
	nudge := func(i int) int32 { return nudgeBy(i, 2e-4) }
	const touch = 1e-5 // 70 m along Y's track: X and Y still meet
	reported := func(res *Result, a, b int) bool {
		for _, c := range res.Conjunctions {
			if c.A == min(sats[a].ID, sats[b].ID) && c.B == max(sats[a].ID, sats[b].ID) {
				return true
			}
		}
		return false
	}
	rebuilt, overlayPeak := -1, 0
	for round := 0; round < 12; round++ {
		sats = append([]propagation.Satellite(nil), sats...)
		dirty := []int32{nudge(20 + 4*round), nudge(21 + 4*round)}
		tr := sess.track
		var xBefore [][2]spatial.Coord
		switch round {
		case 1:
			for w := 0; w < tr.windows(); w++ {
				lo, hi := tr.refBox(refOf(t, tr, w, x))
				xBefore = append(xBefore, [2]spatial.Coord{lo, hi})
			}
			sats[x] = propagation.MustSatellite(sats[x].ID, meet)
			dirty = append(dirty, sats[x].ID)
		case 2:
			if !tr.rewritten[x] || !tr.valid(x) {
				t.Fatalf("round 2: X's row valid %v, in the overlay %v", tr.valid(x), tr.rewritten[x])
			}
			dirty = append(dirty, nudgeBy(y, touch))
		case 3:
			// Equatorial at 7600 km, on the +x axis at span/2: outside the
			// cube (x < 103 cells of 72.2 km) for about ±220 s around it.
			el := orbit.Elements{SemiMajorAxis: 7600, Eccentricity: 1e-5, Inclination: 1e-3}
			el.MeanAnomaly = mathx.NormalizeAngle(-el.MeanMotion() * span / 2)
			sats[u] = propagation.MustSatellite(sats[u].ID, el)
			dirty = append(dirty, sats[u].ID)
		case 4:
			if tr.state[u] != rowUnencodable || tr.rewritten[u] {
				t.Fatalf("round 4: U's row state %v, in the overlay %v", tr.state[u], tr.rewritten[u])
			}
			sats[v] = propagation.MustSatellite(sats[v].ID, companionOf(sats[u], 30))
			dirty = append(dirty, sats[v].ID)
		}
		if tr != nil && rebuilt >= 0 && round == rebuilt+1 {
			dirty = append(dirty, nudgeBy(y, touch))
		}

		fresh, err := det.ScreenContext(ctx, sats)
		if err != nil {
			t.Fatal(err)
		}
		trackless, err := det.ScreenDelta(ctx, sats, DeltaInput{Prior: sess.prior, Dirty: dirty})
		if err != nil {
			t.Fatal(err)
		}
		overlay := 0
		if tr != nil {
			overlay = len(tr.overlay[0])
		}
		inc, err := sess.Screen(ctx, sats, Pass{Epoch: epoch, Dirty: dirty, Covered: true})
		if err != nil {
			t.Fatal(err)
		}
		tr = sess.track
		assertConjunctionsEqual(t, fmt.Sprintf("round %d", round), inc.Conjunctions, fresh.Conjunctions)
		st, ref := inc.Stats, trackless.Stats
		if st.CandidatePairs != ref.CandidatePairs || st.OutOfBounds != ref.OutOfBounds || st.Steps != ref.Steps || st.TrackDropped != "" {
			t.Fatalf("round %d: candidates/out-of-bounds/steps %d/%d/%d, trackless pass %d/%d/%d; dropped %q",
				round, st.CandidatePairs, st.OutOfBounds, st.Steps, ref.CandidatePairs, ref.OutOfBounds, ref.Steps, st.TrackDropped)
		}
		if ref.VisitedObjectSteps != n*ref.Steps || (round > 0 && st.VisitedObjectSteps >= ref.VisitedObjectSteps) {
			t.Fatalf("round %d: visited %d object-steps, trackless pass %d of N·steps %d", round, st.VisitedObjectSteps, ref.VisitedObjectSteps, n*ref.Steps)
		}
		if tr.index == nil {
			t.Fatalf("round %d: no index after the pass", round)
		}
		overlayPeak = max(overlayPeak, overlay)
		if round > 0 && len(tr.overlay[0]) < overlay {
			rebuilt = round
			if overlay+len(dirty) <= n/8 {
				t.Fatalf("round %d: rebuilt with at most %d rows in the overlay, bound %d", round, overlay+len(dirty), n/8)
			}
		}
		switch {
		case round == 1:
			for w := 0; w < tr.windows(); w++ {
				lo, hi := tr.refBox(refOf(t, tr, w, x))
				if boxesMeet(lo, hi, xBefore[w][0], xBefore[w][1]) {
					t.Fatalf("round 1, window %d: X's new box %v–%v meets its indexed one %v–%v", w, lo, hi, xBefore[w][0], xBefore[w][1])
				}
			}
			fallthrough
		case round == 2, rebuilt >= 0 && round == rebuilt+1:
			if !reported(inc, x, y) {
				t.Fatalf("round %d: pair X/Y not reported", round)
			}
		case round == 4:
			if !reported(inc, u, v) || tr.state[u] != rowUnencodable {
				t.Fatalf("round 4: pair U/V reported %v, U's row state %v", reported(inc, u, v), tr.state[u])
			}
		}
	}
	if rebuilt < 0 || rebuilt == 11 {
		t.Fatalf("no rebuild with a round after it (overlay peaked at %d rows, bound %d)", overlayPeak, n/8)
	}
	if out := pl.Stats().Outstanding(); out != 0 {
		t.Fatalf("pool leak: %d structures outstanding", out)
	}
}

// assertOneRefPerRow fails unless each window of tr holds exactly one ref
// per valid row — from the overlay if the row was rewritten since the last
// build, else from the index — and none for another row.
func assertOneRefPerRow(t *testing.T, name string, tr *keyTrack) {
	t.Helper()
	valid := 0
	for i := range tr.state {
		if tr.valid(i) {
			valid++
		}
	}
	for w := 0; w < tr.windows(); w++ {
		seen := make(map[int32]bool)
		for l, refs := range [2][]lockfree.Cell{tr.index[w], tr.overlay[w]} {
			for _, r := range refs {
				if !tr.valid(int(r.Lo)) || (l == 0 && tr.rewritten[r.Lo]) {
					continue
				}
				if seen[r.Lo] {
					t.Fatalf("%s, window %d: row %d has two refs", name, w, r.Lo)
				}
				seen[r.Lo] = true
			}
		}
		if len(seen) != valid {
			t.Fatalf("%s, window %d: %d rows with a ref, %d valid", name, w, len(seen), valid)
		}
	}
}

// TestTrackRefsAfterUnencodableRow: a pass writes each window's ref into the
// slot of the row's place in its list, and a row that goes unencodable
// before a window writes none there. Round 1 opens a new track with U out of
// the cube from its first step; round 2 is cancelled after its first window,
// so its slots hold refs of the rows it listed; round 3 lists U, again out of
// the cube, first, in the slot round 2's first dirty row wrote. After every
// completed pass each window holds one ref per valid row, and the pass
// equals a fresh screen.
func TestTrackRefsAfterUnencodableRow(t *testing.T) {
	const span = 600.0
	const u = 12
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	cfg := Config{DurationSeconds: span, Workers: 2, halfExtentKm: 7300}
	det := newHybrid(cfg)
	sess, err := NewSession(VariantHybrid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sats := denseShellPopulation(96, 41)
	if _, err := sess.Screen(ctx, sats, Pass{Epoch: epoch}); err != nil {
		t.Fatal(err)
	}
	// Equatorial at 7600 km on the +x axis at the epoch: outside the cube
	// (x < 103 cells of 72.2 km) for its first 220 s, a window and more.
	outside := func(dm float64) int32 {
		el := orbit.Elements{SemiMajorAxis: 7600, Eccentricity: 1e-5, Inclination: 1e-3, MeanAnomaly: dm}
		sats[u] = propagation.MustSatellite(sats[u].ID, el)
		return sats[u].ID
	}
	nudge := func(i int) int32 {
		el := sats[i].Elements
		el.MeanAnomaly = mathx.NormalizeAngle(el.MeanAnomaly + 2e-4)
		sats[i] = propagation.MustSatellite(sats[i].ID, el)
		return sats[i].ID
	}
	for round, dirty := range [][]int32{{nudge(20), nudge(21), outside(0)}, {nudge(22), nudge(23), nudge(24)}, {outside(1e-4), nudge(25)}} {
		sats = append([]propagation.Satellite(nil), sats...)
		if round == 1 {
			cctx, cancel := context.WithCancel(ctx)
			p := Pass{Epoch: epoch, Dirty: dirty, Covered: true, Observer: &cancelAtStep{at: 2 * boxSteps, cancel: cancel}}
			_, err := sess.Screen(cctx, sats, p)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("round 1: err = %v, want context.Canceled", err)
			}
			continue
		}
		fresh, err := det.ScreenContext(ctx, sats)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := sess.Screen(ctx, sats, Pass{Epoch: epoch, Dirty: dirty, Covered: true})
		if err != nil {
			t.Fatal(err)
		}
		assertConjunctionsEqual(t, fmt.Sprintf("round %d", round), inc.Conjunctions, fresh.Conjunctions)
		if tr := sess.track; tr.state[u] != rowUnencodable {
			t.Fatalf("round %d: U's row state %v, want unencodable", round, tr.state[u])
		}
		assertOneRefPerRow(t, fmt.Sprintf("round %d", round), sess.track)
	}
}

// BenchmarkSessionDeltaPass: one 16-object delta pass of a primed hybrid
// session over the KDE population, 600 s, two workers, reporting the
// object-steps the pass keyed. Each pass runs as a rescreen loop's does
// (httpapi.Rescreener): under a context it can cancel, with an observer that
// takes a lock per step and phase.
func BenchmarkSessionDeltaPass(b *testing.B) {
	for _, n := range []int{8000, 131072} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var mu sync.Mutex
			var steps, phases int
			observer := ObserverFuncs{
				Step:  func(StepInfo) { mu.Lock(); steps++; mu.Unlock() },
				Phase: func(PhaseInfo) { mu.Lock(); phases++; mu.Unlock() },
			}
			epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
			sats := population.MustGenerate(population.Config{N: n, Seed: 1})
			sess, err := NewSession(VariantHybrid, Config{DurationSeconds: 600, Workers: 2})
			if err != nil {
				b.Fatal(err)
			}
			nudger := &deltaNudger{sats: sats, rng: mathx.NewSplitMix64(7)}
			pass := func(p Pass) *Result {
				p.Observer = observer
				res, err := sess.Screen(ctx, sats, p)
				if err != nil {
					b.Fatal(err)
				}
				return res
			}
			pass(Pass{Epoch: epoch})
			for i := 0; i < 2; i++ {
				pass(Pass{Epoch: epoch, Dirty: nudger.next(16), Covered: true})
			}
			visited := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				visited += pass(Pass{Epoch: epoch, Dirty: nudger.next(16), Covered: true}).Stats.VisitedObjectSteps
			}
			b.ReportMetric(float64(visited)/float64(b.N), "visited/pass")
		})
	}
}
