package core

// The key track under test: its byte code, its budget rule, and a session
// chained over update-only deltas — the rounds in which rows are read rather
// than solved — checked against fresh screens and trackless passes.

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/lockfree"
	"repro/internal/mathx"
	"repro/internal/orbit"
	"repro/internal/pool"
	"repro/internal/propagation"
	"repro/internal/spatial"
)

// checkMoveCodes: every move of the byte code carries a key of g to its
// neighbour and back out through g.Coord, placed so that the move ends on a
// face of g's cube.
func checkMoveCodes(t *testing.T, g *spatial.Grid) {
	t.Helper()
	face := g.MaxAbsCoord()
	along := func(d int32) (from int32) { // a start from which moving d ends on a face
		if d < 0 {
			return -face - d
		}
		return face - d
	}
	tr := newKeyTrack(trackShape{n: 1, steps: 2}, g, make([]propagation.Satellite, 1))
	seen := make(map[byte]bool)
	for dx := int32(-moveSpan); dx <= moveSpan; dx++ {
		for dy := int32(-moveSpan); dy <= moveSpan; dy++ {
			for dz := int32(-moveSpan); dz <= moveSpan; dz++ {
				from := spatial.Coord{X: along(dx), Y: along(dy), Z: along(dz)}
				to := spatial.Coord{X: from.X + dx, Y: from.Y + dy, Z: from.Z + dz}
				code, ok := tr.moveCode(g.Key(from), g.Key(to))
				if !ok || seen[code] {
					t.Fatalf("maxIdx %d, move (%d,%d,%d): code %d, ok %v, repeated %v", face, dx, dy, dz, code, ok, seen[code])
				}
				seen[code] = true
				if got := g.Coord(g.Key(from) + tr.moveDelta[code]); got != to {
					t.Fatalf("maxIdx %d, move (%d,%d,%d) from %v lands on %v, want %v", face, dx, dy, dz, from, got, to)
				}
			}
		}
	}
	if len(seen) != len(tr.moveDelta) {
		t.Fatalf("maxIdx %d: %d codes for %d table entries", face, len(seen), len(tr.moveDelta))
	}
}

// TestTrackMoveCode: the byte code round-trips on the largest cube NewGrid
// allows; a three-cell jump and an out-of-cube sample make the row
// unencodable, and commit does not validate it.
func TestTrackMoveCode(t *testing.T) {
	g, err := spatial.NewGrid(1, 1<<20-2)
	if err != nil {
		t.Fatal(err)
	}
	checkMoveCodes(t, g)

	key := func(x int32) uint64 { return g.Key(spatial.Coord{X: x, Y: 1, Z: -1}) }
	for name, bad := range map[string]uint64{"three-cell jump": key(4), "out of the cube": lockfree.EmptySlot} {
		tr := newKeyTrack(trackShape{n: 2, steps: 3}, g, make([]propagation.Satellite, 2))
		tr.begin(nil)
		for i := 0; i < 2; i++ {
			tr.note(i, i, 0, key(0))
			tr.note(i, i, 1, key(1))
		}
		tr.note(0, 0, 2, bad)
		tr.note(1, 1, 2, key(3))
		if tr.state[0] != rowUnencodable || tr.state[1] != rowOpen {
			t.Fatalf("%s: row states %v", name, tr.state)
		}
		tr.commit()
		if tr.valid(0) || !tr.valid(1) {
			t.Fatalf("%s: after commit row states %v", name, tr.state)
		}
		tr.cur[1] = tr.refStart(refOf(t, tr, 0, 1)) // entered at window 0
		for step, want := range []uint64{key(0), key(1), key(3)} {
			if got := tr.advance(1, uint32(step)); got != want {
				t.Fatalf("%s: row 1 at step %d = %v, want %v", name, step, g.Coord(got), g.Coord(want))
			}
		}
	}
}

func TestTrackFits(t *testing.T) {
	for _, tc := range []struct {
		n, steps int
		want     bool
	}{
		{8000, 67, true},     // service-hybrid-8k: 0.53 MB
		{131072, 67, true},   // hybrid at 131k: 8.7 MB
		{131072, 601, false}, // a 1 s grid at 131k: 79 MB
		{500000, 67, true},
		{55000, 601, true},
		{2, 1, true},
	} {
		if got := trackFits(tc.n, tc.steps); got != tc.want {
			t.Errorf("trackFits(%d, %d) = %v, want %v", tc.n, tc.steps, got, tc.want)
		}
	}
}

// companionOf returns elements on x's orbit 0.8 km further out, phased to meet
// x at tMeet: a sub-threshold encounter by construction.
func companionOf(x propagation.Satellite, tMeet float64) orbit.Elements {
	el := x.Elements
	el.SemiMajorAxis += 0.8
	el.MeanAnomaly = mathx.NormalizeAngle(el.MeanAnomaly + (x.MeanMotion()-el.MeanMotion())*tMeet)
	return el
}

// TestSessionUpdateChain chains a session over update-only deltas, so from the
// second round on the clean objects' keys come from the track. Every round is
// compared with a fresh screen (bit for bit) and with a trackless ScreenDelta
// of the same input (exact counters). The script, the same in every case:
// round 3 moves object X onto a sub-threshold companion orbit of the clean
// object Y and round 4 updates Y and not X, so the pair is then found from X's
// rewritten row; round 6 runs twice, first cancelled mid-sampling, then over the
// window widened by one more update; the cases add a priming pass cancelled
// the same way, a cube the shell pokes out of, and an update in round 8 that
// lifts the largest apogee. Joins the 50× race list: neighbouring bytes of a
// moves stripe and of the row states are written by different workers.
func TestSessionUpdateChain(t *testing.T) {
	const span, rounds = 300.0, 10
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	cases := []struct {
		name          string
		cfg           Config
		cancelPriming bool
		raiseApogee   bool
		allValid      bool // every clean row is read once the track is primed
	}{
		{name: "all-rows-valid", allValid: true},
		{name: "cube-below-apogees", cfg: Config{halfExtentKm: 6800}},
		{name: "apogee-moves-cube", raiseApogee: true, allValid: true},
		{name: "priming-pass-cancelled", cancelPriming: true, allValid: true},
	}
	for _, variant := range []Variant{VariantGrid, VariantHybrid} {
		for _, tc := range cases {
			t.Run(string(variant)+"/"+tc.name, func(t *testing.T) {
				pl := pool.New()
				cfg := tc.cfg
				cfg.DurationSeconds, cfg.Workers, cfg.Pool = span, 4, pl
				if variant == VariantGrid {
					cfg.SecondsPerSample = 2 // half the steps: the test runs fifty times over under -race
				}
				desc, _ := Lookup(variant)
				det := desc.New(cfg).(DeltaDetector)
				sess, err := NewSession(variant, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()

				sats := seededEncounterPopulation(5, span)
				for _, s := range denseShellPopulation(60, 17) {
					sats = append(sats, propagation.MustSatellite(int32(len(sats)), s.Elements))
				}
				n := len(sats)
				const x, y = 32, 33 // two shell objects, far apart until round 3
				if _, err := sess.Screen(ctx, sats, Pass{Epoch: epoch}); err != nil {
					t.Fatal(err)
				}

				// cancelled runs the pass with a context cancelled after five
				// sampling steps and demands it fail that way.
				cancelled := func(p Pass) {
					t.Helper()
					cctx, cancel := context.WithCancel(ctx)
					defer cancel()
					p.Observer = &cancelAtStep{at: 5, cancel: cancel}
					if _, err := sess.Screen(cctx, sats, p); !errors.Is(err, context.Canceled) {
						t.Fatalf("err = %v, want context.Canceled", err)
					}
				}
				rng := mathx.NewSplitMix64(31)
				nudge := func(i int) int32 {
					el := sats[i].Elements
					el.MeanAnomaly = mathx.NormalizeAngle(el.MeanAnomaly + rng.UniformRange(1e-4, 3e-4))
					sats[i] = propagation.MustSatellite(sats[i].ID, el)
					return sats[i].ID
				}
				candidates := 0
				for round := 0; round < rounds; round++ {
					// Updates only: a member of an engineered encounter (IDs 16…31
					// pair up), so the pass has candidates to get right, and two
					// shell objects.
					sats = append([]propagation.Satellite(nil), sats...) // a revision never mutates its predecessor
					dirty := []int32{nudge(16 + round), nudge(34 + 2*round), nudge(55 + 3*round)}
					wantDrop, failed := "", false
					switch {
					case round == 0 && tc.cancelPriming, round == 6:
						cancelled(Pass{Epoch: epoch, Dirty: dirty, Covered: true})
						dirty = append(dirty, nudge(88))
						wantDrop, failed = "failed-pass", true
					case round == 3:
						sats[x] = propagation.MustSatellite(sats[x].ID, companionOf(sats[y], span/2))
						dirty = append(dirty, sats[x].ID)
					case round == 4:
						dirty = append(dirty, nudge(y))
					case round == 8 && tc.raiseApogee:
						el := sats[90].Elements
						el.SemiMajorAxis += 200
						sats[90] = propagation.MustSatellite(sats[90].ID, el)
						dirty = append(dirty, sats[90].ID)
						wantDrop = "geometry"
					}

					fresh, err := det.ScreenContext(ctx, sats)
					if err != nil {
						t.Fatal(err)
					}
					trackless, err := det.ScreenDelta(ctx, sats, DeltaInput{Prior: sess.prior, Dirty: dirty})
					if err != nil {
						t.Fatal(err)
					}
					// Rows the pass should read: the valid ones, less the dirty. (A
					// cancelled attempt has already reopened its dirty rows.) None
					// in the round that primes, or once the cube has moved.
					wantTracked := 0
					for i := range sats {
						if sess.track != nil && wantDrop != "geometry" && sess.track.valid(i) && !slices.Contains(dirty, sats[i].ID) {
							wantTracked++
						}
					}
					inc, err := sess.Screen(ctx, sats, Pass{Epoch: epoch, Dirty: dirty, Covered: true})
					if err != nil {
						t.Fatal(err)
					}
					if len(inc.Conjunctions) != len(fresh.Conjunctions) {
						t.Fatalf("round %d: %d conjunctions, a fresh screen has %d", round, len(inc.Conjunctions), len(fresh.Conjunctions))
					}
					for k, c := range inc.Conjunctions {
						if c != fresh.Conjunctions[k] || c != trackless.Conjunctions[k] {
							t.Fatalf("round %d: conjunction %d = %+v, fresh screen %+v, trackless pass %+v",
								round, k, c, fresh.Conjunctions[k], trackless.Conjunctions[k])
						}
					}
					st, ref := inc.Stats, trackless.Stats
					if st.CandidatePairs != ref.CandidatePairs || st.OutOfBounds != ref.OutOfBounds || st.Steps != ref.Steps {
						t.Fatalf("round %d: candidates/out-of-bounds/steps %d/%d/%d, trackless pass %d/%d/%d",
							round, st.CandidatePairs, st.OutOfBounds, st.Steps, ref.CandidatePairs, ref.OutOfBounds, ref.Steps)
					}
					if st.TrackDropped != wantDrop || ref.TrackedObjects != 0 || ref.TrackBytes != 0 || st.TrackBytes != sess.track.bytes() {
						t.Fatalf("round %d: TrackDropped = %q, want %q; trackless pass read %d rows of %d B",
							round, st.TrackDropped, wantDrop, ref.TrackedObjects, ref.TrackBytes)
					}
					if st.TrackedObjects != wantTracked || (wantTracked == 0) != (round == 0 || wantDrop == "geometry") {
						t.Fatalf("round %d: %d rows read, want %d (%d dirty, failed attempt %v)",
							round, st.TrackedObjects, wantTracked, len(dirty), failed)
					}
					valid := 0
					for i := range sess.track.state {
						if sess.track.valid(i) {
							valid++
						}
					}
					switch {
					case tc.allValid && valid != n:
						t.Fatalf("round %d: %d of %d rows valid", round, valid, n)
					case !tc.allValid && (valid == 0 || valid >= n || st.OutOfBounds == 0):
						t.Fatalf("round %d: %d of %d rows valid with %d samples out of the cube", round, valid, n, st.OutOfBounds)
					}
					candidates += st.CandidatePairs
					if round == 4 {
						found := false
						for _, c := range inc.Conjunctions {
							found = found || (c.A == sats[x].ID && c.B == sats[y].ID)
						}
						if !found {
							t.Fatalf("round 4: pair %d/%d, found from %d's rewritten row, not reported", sats[x].ID, sats[y].ID, sats[x].ID)
						}
					}
				}
				if candidates == 0 {
					t.Fatal("no round had a candidate to get right")
				}
				if out := pl.Stats().Outstanding(); out != 0 {
					t.Fatalf("pool leak: %d structures outstanding", out)
				}
			})
		}
	}
}

// TestSessionDropReasons: each event that ends a track's life is followed by
// a pass that equals a fresh screen and names the reason.
func TestSessionDropReasons(t *testing.T) {
	const span = 600.0
	cfg := Config{DurationSeconds: span, Workers: 2, Pool: pool.New()}
	det := newHybrid(cfg)
	sess, err := NewSession(VariantHybrid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sats := denseShellPopulation(64, 3)
	nextID := int32(len(sats))

	steps := []struct {
		name          string
		change        func() Pass // mutates sats, returns the pass describing it
		drop          string
		full, tracked bool
	}{
		{name: "first pass", change: func() Pass { return Pass{Epoch: epoch} }, full: true},
		{name: "priming delta", change: func() Pass { return Pass{Epoch: epoch, Dirty: []int32{1}, Covered: true} }},
		{name: "tracked delta", change: func() Pass { return Pass{Epoch: epoch, Dirty: []int32{2}, Covered: true} }, tracked: true},
		{name: "epoch moved", drop: "epoch", full: true, change: func() Pass {
			epoch = epoch.Add(time.Hour)
			return Pass{Epoch: epoch, Dirty: []int32{3}, Covered: true}
		}},
		{name: "re-priming delta", change: func() Pass { return Pass{Epoch: epoch, Dirty: []int32{4}, Covered: true} }},
		{name: "add", drop: "membership", change: func() Pass {
			sats = append(sats, propagation.MustSatellite(nextID, sats[5].Elements))
			return Pass{Epoch: epoch, Dirty: []int32{nextID}, Covered: true}
		}},
		{name: "remove", drop: "membership", change: func() Pass {
			gone := sats[0].ID
			sats = sats[1:]
			return Pass{Epoch: epoch, Removed: []int32{gone}, Covered: true}
		}},
		{name: "journal pruned", drop: "journal", full: true, change: func() Pass { return Pass{Epoch: epoch} }},
		{name: "re-priming delta 2", change: func() Pass { return Pass{Epoch: epoch, Dirty: []int32{6}, Covered: true} }},
		{name: "above the crossover", drop: "crossover", change: func() Pass {
			dirty := make([]int32, 0, len(sats)/4)
			for i := 0; i < len(sats)/4; i++ {
				dirty = append(dirty, sats[i].ID)
			}
			return Pass{Epoch: epoch, Dirty: dirty, Covered: true}
		}},
	}
	for _, step := range steps {
		p := step.change()
		if got := !sess.Incremental(p); got != step.full {
			t.Fatalf("%s: full screen = %v, want %v", step.name, got, step.full)
		}
		res, err := sess.Screen(ctx, sats, p)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		fresh, err := det.ScreenContext(ctx, sats)
		if err != nil {
			t.Fatal(err)
		}
		assertConjunctionsEqual(t, step.name, res.Conjunctions, fresh.Conjunctions)
		if res.Stats.TrackDropped != step.drop || (res.Stats.TrackedObjects > 0) != step.tracked {
			t.Fatalf("%s: TrackDropped = %q (want %q), %d rows read", step.name, res.Stats.TrackDropped, step.drop, res.Stats.TrackedObjects)
		}
	}
}
