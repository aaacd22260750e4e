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

func TestKnotIntervalJoinListsExactlyTheMeetingBoxes(t *testing.T) {
	// The join against every pair of boxes, over the first four intervals of a
	// KDE shell on the screens' 2 km grid (boxes 2 to 16 cells wide, so a few
	// as wide as a lattice cell) and on 100 km cells (a cell or two): an object
	// is listed iff its box, grown by one cell, meets another object's.
	for _, c := range []struct {
		n         int
		threshold float64
	}{{4000, 2}, {1000, 100}} {
		sats := population.MustGenerate(population.Config{N: c.n, Seed: 1})
		cfg := Config{ThresholdKm: c.threshold, DurationSeconds: 600, SecondsPerSample: 1, Workers: 2, Pool: pool.New()}
		r, err := newRun(context.Background(), cfg, sats, 1, knotSeconds, nil)
		if err != nil {
			t.Fatal(err)
		}
		los, his := make([]spatial.Coord, len(sats)), make([]spatial.Coord, len(sats))
		for step := 0; step < 4*r.stride; step++ {
			if j := step % r.stride; j > 1 {
				continue
			}
			if _, err := r.buildEntries(step, r.entries); err != nil {
				t.Fatal(err)
			}
			if step%r.stride == 0 {
				for i := range sats {
					var ok bool
					if los[i], his[i], ok = r.intervalBox(i); !ok {
						t.Fatalf("object %d: box off the cube", i)
					}
				}
				continue
			}
			var want []int32
			for a := range sats {
				for b := range sats {
					if a != b && los[a].X <= his[b].X+1 && los[b].X <= his[a].X+1 && los[a].Y <= his[b].Y+1 &&
						los[b].Y <= his[a].Y+1 && los[a].Z <= his[b].Z+1 && los[b].Z <= his[a].Z+1 {
						want = append(want, int32(a))
						break
					}
				}
			}
			if !r.listing || !slices.Equal(r.interval, want) {
				t.Fatalf("N = %d, %g km: interval at step %d: the join listed %d objects (listing on: %v), the pairs %d",
					c.n, c.threshold, step-1, len(r.interval), r.listing, len(want))
			}
			t.Logf("N = %d, %g km: interval at step %d: %d of %d objects listed", c.n, c.threshold, step-1, len(want), len(sats))
		}
		r.release()
	}
}
