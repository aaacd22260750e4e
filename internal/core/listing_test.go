package core

// The knot-interval listing (listing.go): every cell the build keys an object
// to lies in its interval's box, the join lists exactly the objects whose
// boxes meet another's, and a screen that lists is the screen that does not.

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/orbit"
	"repro/internal/pool"
	"repro/internal/population"
	"repro/internal/propagation"
	"repro/internal/spatial"
	"repro/internal/vec3"
)

func TestKnotIntervalBoxHoldsEveryKeyedCell(t *testing.T) {
	// Every object-step over four knot intervals at h = 512 s, with 40 km
	// cells' pads of kilometres (TestKnotPadIsLoadBearing's regime), and over
	// 64 at h = 16 s on the screens' 2 km grid: the cell positionAt keys, and
	// the cells of the cube of half-edge pad about the interpolant, where a
	// position it solves instead may lie.
	for _, h := range []float64{knotSeconds, 512} {
		threshold, span := 2.0, 64*knotSeconds
		if h > knotSeconds {
			threshold, span = oracleThreshold, 4*h
		}
		for _, row := range knotTestPopulations(t, span) {
			cfg := Config{ThresholdKm: threshold, SecondsPerSample: 1, DurationSeconds: span, Workers: 1, Pool: pool.New()}
			r, err := newRun(context.Background(), cfg, row.sats, 1, h, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.stride != int(h) || r.pad <= 0 {
				t.Fatalf("%s, h = %g s: stride %d, pad %g km", row.name, h, r.stride, r.pad)
			}
			type box struct {
				lo, hi spatial.Coord
				ok     bool
			}
			boxes := make([]box, len(row.sats))
			near := 0
			for step := 0; step < r.steps; step++ {
				j := step % r.stride
				for i := range row.sats {
					_, c, ok := r.positionAt(i, step)
					b := &boxes[i]
					if j == 0 {
						b.lo, b.hi, b.ok = r.intervalBox(i)
					}
					outside := func(c spatial.Coord) bool {
						return c.X < b.lo.X || c.Y < b.lo.Y || c.Z < b.lo.Z || c.X > b.hi.X || c.Y > b.hi.Y || c.Z > b.hi.Z
					}
					switch {
					case !ok && b.ok:
						t.Fatalf("%s, h = %g s, object %d at %d s: off the cube, its box %v–%v in it", row.name, h, i, step, b.lo, b.hi)
					case ok && outside(c):
						t.Fatalf("%s, h = %g s, object %d (e = %.3g) at %d s: cell %v outside its interval's box %v–%v",
							row.name, h, i, row.sats[i].Elements.Eccentricity, step, c, b.lo, b.hi)
					}
					p := row.sats[i].FromPerifocal(r.knots[i].At(float64(j) / float64(r.stride)))
					if _, _, n := r.grid.CoordNear(p, r.pad); n && j > 0 { // positionAt solves it
						near++
					}
					pad := vec3.V{X: r.pad, Y: r.pad, Z: r.pad}
					for _, q := range [2]vec3.V{p.Sub(pad), p.Add(pad)} {
						if c, ok := r.grid.CoordOf(q); b.ok && (!ok || outside(c)) {
							t.Fatalf("%s, h = %g s, object %d at %d s: the interpolant's pad corner %v in cell %v, outside the box %v–%v",
								row.name, h, i, step, q, c, b.lo, b.hi)
						}
					}
				}
			}
			r.release()
			t.Logf("%s, h = %g s: %d object-steps, %d solved near a face", row.name, h, r.steps*len(row.sats), near)
			if h > knotSeconds && row.name == "kde-2k" && near == 0 {
				t.Errorf("%s, h = %g s: no position solved near a face, so no solve was checked", row.name, h)
			}
		}
	}
}

// listingScreen screens sats with the grid detector at knot spacing h, with
// the knot-interval listing or, forced off in the run, without it.
func listingScreen(t *testing.T, cfg Config, sats []propagation.Satellite, h float64, listing bool) *Result {
	t.Helper()
	d := newGrid(cfg)
	r, err := newRun(context.Background(), cfg, sats, d.sps, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.release()
	r.listing = r.listing && listing
	res, err := d.screenRun(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestKnotIntervalListingChangesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("screens of thousands of objects; skipped with -short")
	}
	type screenCase struct {
		name string
		sats []propagation.Satellite
		cfg  Config
	}
	var cases []screenCase
	for seed := uint64(1); seed <= 3; seed++ {
		kde := population.MustGenerate(population.Config{N: 4000, Seed: seed})
		debris, err := population.Fragmentation(population.FragmentationConfig{
			Parent:        orbit.Elements{SemiMajorAxis: 7100, Eccentricity: 0.001, Inclination: 1.7, RAAN: 1, ArgPerigee: 0.5, MeanAnomaly: 0.3},
			TimeOfBreakup: -6000, N: 1500, DeltaVKmS: 0.05, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases,
			screenCase{fmt.Sprintf("kde-4k/seed-%d", seed), kde, Config{DurationSeconds: 600, Workers: 2}},
			screenCase{fmt.Sprintf("debris-1500/seed-%d", seed), debris, Config{DurationSeconds: 160, Workers: 2}})
	}
	shell, _ := shellOracle(t)
	cases = append(cases, screenCase{"oracle-shell", shell, Config{ThresholdKm: oracleThreshold, DurationSeconds: oracleSpan, Workers: 2}})
	for _, c := range cases {
		for _, h := range []float64{knotSeconds, 512} {
			t.Run(fmt.Sprintf("%s/h=%g", c.name, h), func(t *testing.T) {
				want := listingScreen(t, c.cfg, c.sats, h, false)
				got := listingScreen(t, c.cfg, c.sats, h, true)
				assertConjunctionsEqual(t, c.name, got.Conjunctions, want.Conjunctions)
				g, w := got.Stats, want.Stats
				type counters struct {
					candidates, grid, motion, refinements, prefiltered int
					oob                                                uint64
				}
				gc := counters{g.CandidatePairs, g.GridCandidates, g.MotionGated, g.Refinements, g.PrefilterRejected, g.OutOfBounds}
				wc := counters{w.CandidatePairs, w.GridCandidates, w.MotionGated, w.Refinements, w.PrefilterRejected, w.OutOfBounds}
				if gc != wc {
					t.Fatalf("listed %+v, unlisted %+v", gc, wc)
				}
				all := len(c.sats) * w.Steps
				if w.VisitedObjectSteps != all {
					t.Fatalf("unlisted screen keyed %d object-steps, want N·steps = %d", w.VisitedObjectSteps, all)
				}
				t.Logf("%d conjunctions, %d grid candidates; listed %.1f %% of N·steps", len(got.Conjunctions), g.GridCandidates, 100*float64(g.VisitedObjectSteps)/float64(all))
				if h == knotSeconds && c.name == "kde-4k/seed-1" && 4*g.VisitedObjectSteps > all {
					t.Errorf("listed %d of %d object-steps: the listing left out too little to be tested", g.VisitedObjectSteps, all)
				}
			})
		}
	}
}

func TestKnotIntervalJoinTimed(t *testing.T) {
	// PhaseStats.Join is the build side's wall in the join: some on a
	// screen that lists, inside Insertion; none on the hybrid (no knots) or
	// on a delta pass (its own listing).
	sats := population.MustGenerate(population.Config{N: 2000, Seed: 1})
	cfg := Config{ThresholdKm: 2, DurationSeconds: 300, Workers: 2, Pool: pool.New()}
	grid, err := newGrid(cfg).Screen(sats)
	if err != nil {
		t.Fatal(err)
	}
	if st := grid.Stats; st.Join <= 0 || st.Join > st.Insertion {
		t.Errorf("listing grid screen: join %v, insertion %v", st.Join, st.Insertion)
	}
	hybrid, err := newHybrid(cfg).Screen(sats)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := newGrid(cfg).ScreenDelta(context.Background(), sats, DeltaInput{Prior: grid.Conjunctions, Dirty: []int32{sats[3].ID, sats[700].ID}})
	if err != nil {
		t.Fatal(err)
	}
	if delta.Stats.DirtyObjects == 0 {
		t.Fatal("the delta ran as a full screen")
	}
	if hybrid.Stats.Join != 0 || delta.Stats.Join != 0 {
		t.Errorf("join %v on the hybrid, %v on a delta pass, want 0", hybrid.Stats.Join, delta.Stats.Join)
	}
}

func TestKnotIntervalJoinListsExactlyTheMeetingBoxes(t *testing.T) {
	// The join against every pair of boxes, over the first four intervals of a
	// KDE shell on the screens' 2 km grid (boxes 2 to 16 cells wide, so a few
	// as wide as a lattice cell) and on 100 km cells (a cell or two): an object
	// is listed iff its box, grown by one cell, meets another object's. The
	// join forks on the build side, so it runs at one to four workers, each
	// against the same reference.
	for _, c := range []struct {
		n         int
		threshold float64
	}{{4000, 2}, {1000, 100}} {
		sats := population.MustGenerate(population.Config{N: c.n, Seed: 1})
		var want [][]int32 // by interval
		for workers := 1; workers <= 4; workers++ {
			r := joinRun(t, sats, c.threshold, workers)
			for k := range 4 {
				los, his := joinBoxes(t, r, k)
				if workers == 1 {
					want = append(want, meetingBoxes(los, his, nil))
				}
				if !r.listing || !slices.Equal(r.interval, want[k]) {
					t.Fatalf("N = %d, %g km, %d workers: interval %d: the join listed %d objects (listing on: %v), the pairs %d",
						c.n, c.threshold, workers, k, len(r.interval), r.listing, len(want[k]))
				}
				if workers == 1 {
					t.Logf("N = %d, %g km: interval %d: %d of %d objects listed", c.n, c.threshold, k, len(want[k]), len(sats))
				}
			}
			r.release()
		}
	}
}

func TestKnotIntervalJoinStopsPastItsBudget(t *testing.T) {
	// A debris cloud a minute after breakup, on 100 km cells: every box meets
	// every other, in one or two lattice cells, so a walk to the end would
	// test every pair. The join must stop once its tests pass joinTests·N, at
	// every worker count, and so stop the listing.
	debris, err := population.Fragmentation(population.FragmentationConfig{
		Parent:        orbit.Elements{SemiMajorAxis: 7100, Eccentricity: 0.001, Inclination: 1.7, RAAN: 1, ArgPerigee: 0.5, MeanAnomaly: 0.3},
		TimeOfBreakup: -60, N: 2000, DeltaVKmS: 0.05, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	budget := joinTests * int64(len(debris))
	var pairs int64
	for workers := 1; workers <= 4; workers++ {
		r := joinRun(t, debris, 100, workers)
		los, his := joinBoxes(t, r, 0)
		if workers == 1 {
			meetingBoxes(los, his, &pairs)
			if pairs <= 4*budget {
				t.Fatalf("%d meeting pairs, budget %d: the cloud is too sparse to test the stop", pairs, budget)
			}
		}
		tests := r.join.tests.Load()
		if r.listing || tests <= budget || tests >= pairs {
			t.Fatalf("%d workers: listing on %v after %d tests, budget %d, %d meeting pairs", workers, r.listing, tests, budget, pairs)
		}
		t.Logf("%d workers: stopped after %d tests of %d meeting pairs (budget %d)", workers, tests, pairs, budget)
		r.release()
	}
}

// joinRun is a listing run of sats at 1 s steps on the cells of threshold.
func joinRun(t *testing.T, sats []propagation.Satellite, threshold float64, workers int) *run {
	t.Helper()
	cfg := Config{ThresholdKm: threshold, DurationSeconds: 600, SecondsPerSample: 1, Workers: workers, Pool: pool.New()}
	r, err := newRun(context.Background(), cfg, sats, 1, knotSeconds, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// joinBoxes builds the knot step of interval k and the step after it, whose
// build joins the interval's boxes, and returns the boxes' least and greatest
// cells.
func joinBoxes(t *testing.T, r *run, k int) (los, his []spatial.Coord) {
	t.Helper()
	los, his = make([]spatial.Coord, len(r.sats)), make([]spatial.Coord, len(r.sats))
	if _, err := r.buildEntries(k*r.stride, r.entries); err != nil {
		t.Fatal(err)
	}
	for i := range r.sats {
		var ok bool
		if los[i], his[i], ok = r.intervalBox(i); !ok {
			t.Fatalf("object %d: box off the cube", i)
		}
	}
	if _, err := r.buildEntries(k*r.stride+1, r.entries); err != nil {
		t.Fatal(err)
	}
	return los, his
}

// meetingBoxes lists, ascending, the objects whose box, grown by one cell,
// meets another's, testing every pair; pairs, if not nil, counts the pairs
// that meet.
func meetingBoxes(los, his []spatial.Coord, pairs *int64) []int32 {
	var listed []int32
	for a := range los {
		met := false
		for b := range los {
			if a != b && los[a].X <= his[b].X+1 && los[b].X <= his[a].X+1 && los[a].Y <= his[b].Y+1 &&
				los[b].Y <= his[a].Y+1 && los[a].Z <= his[b].Z+1 && los[b].Z <= his[a].Z+1 {
				met = true
				if pairs == nil {
					break
				}
				if a < b {
					*pairs++
				}
			}
		}
		if met {
			listed = append(listed, int32(a))
		}
	}
	return listed
}
