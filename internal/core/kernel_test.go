package core

// The shared position kernel's extrapolated warm guess and the packed-key
// candidate sort: each replaces something simpler, and each is pinned against
// what it replaced.

import (
	"context"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/kepler"
	"repro/internal/lockfree"
	"repro/internal/mathx"
	"repro/internal/orbit"
	"repro/internal/pool"
	"repro/internal/population"
	"repro/internal/propagation"
)

// newtonConverges reports whether plain Newton from guess reaches the warm
// solver's tolerance within its eight evaluations. kepler.SolveFromSincos
// walks the same iterates and accepts no later than this does, so a true
// here means it returned from its loop and never reached the cold fallback.
func newtonConverges(m, e, guess float64) bool {
	mn := mathx.NormalizeAngle(m)
	g := mathx.NormalizeAngle(guess)
	switch {
	case g-mn > math.Pi:
		g -= mathx.TwoPi
	case mn-g > math.Pi:
		g += mathx.TwoPi
	}
	for i := 0; i < 8; i++ {
		se, ce := math.Sincos(g)
		f := g - e*se - mn
		if math.Abs(f) < 1e-13 {
			return true
		}
		g -= f / (1 - e*ce)
	}
	return false
}

// kernelRun is a run over sats with the warm cache armed, ready for
// positionAt to be stepped by hand, at the detectors' knot spacing.
func kernelRun(t *testing.T, sats []propagation.Satellite, sps float64) *run {
	t.Helper()
	cfg := Config{DurationSeconds: 1e4, SecondsPerSample: sps, Workers: 1, Pool: pool.New()}
	r, err := newRun(context.Background(), cfg, sats, sps, knotSeconds, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// kernelSolves replays, ahead of positionAt, the Kepler solves it makes for
// object i at step — the step itself at m = 1; at m > 1 knots 0 and m at
// step 0, knot step+m at every m-th step, none between — calling check with
// each solve's step, mean anomaly and guess, and returns the warm-start cache
// positionAt must leave behind.
func kernelSolves(r *run, i, step int, check func(solved int, m, guess float64)) propagation.KeplerCache {
	var at []int
	switch m := r.stride; {
	case m == 1:
		at = []int{step}
	case step == 0:
		at = []int{0, m}
	case step%m == 0:
		at = []int{step + m}
	}
	s, kc := &r.sats[i], r.kcache[i]
	for _, k := range at {
		m := s.Elements.MeanAnomaly + s.MeanMotion()*(float64(k)*r.sps)
		guess := kc.E + kc.DeltaE
		check(k, m, guess)
		ecc, _, _ := kepler.SolveFromSincos(m, s.Elements.Eccentricity, guess)
		if k > 0 {
			kc.DeltaE = mathx.WrapPi(ecc - kc.E)
		}
		kc.E = ecc
	}
	return kc
}

func TestExtrapolatedGuessReachesTheConstantGuessRoot(t *testing.T) {
	// 100 objects × 100 steps per (e, s_ps): 10⁴ steps each, a quarter of the
	// objects phased to pass perigee — M through 2π, E moving 1/(1−e) times
	// faster than M — mid-run. At s_ps = 1 s the kernel solves every 16th
	// step (knotSeconds) and at 9 s every step. Every root the extrapolated
	// guess reaches must satisfy the solver's residual bound and be the root
	// the constant n·m·s_ps guess reaches, and every position must be the
	// orbit's: to 1e-6 km where each step is solved, within the interpolant's
	// bound ε_i where knots are.
	const objects, steps = 100, 100
	for _, e := range []float64{0, 1e-3, 0.1, 0.7, 0.95} {
		for _, sps := range []float64{1, 9} {
			rng := mathx.NewSplitMix64(uint64(1000*e) + uint64(sps))
			sats := make([]propagation.Satellite, objects)
			for i := range sats {
				el := orbit.Elements{
					SemiMajorAxis: rng.UniformRange(6900, 7400) / (1 - e), // perigee stays in LEO
					Eccentricity:  e,
					Inclination:   rng.UniformRange(0.1, 3.0),
					MeanAnomaly:   rng.UniformRange(0, mathx.TwoPi),
				}
				if i%4 == 0 {
					el.MeanAnomaly = mathx.NormalizeAngle(-el.MeanMotion() * sps * rng.UniformRange(5, steps-5))
				}
				sats[i] = propagation.MustSatellite(int32(i), el)
			}
			r := kernelRun(t, sats, sps)
			if want := max(1, int(knotSeconds/sps)); r.stride != want {
				t.Fatalf("e=%g sps=%g: stride %d, want %d", e, sps, r.stride, want)
			}
			h := float64(r.stride) * sps
			constant := make([]float64, objects) // E of the previous solve under the constant guess
			for i := range sats {
				constant[i] = r.kcache[i].E
			}
			for step := 0; step < steps; step++ {
				tSec := float64(step) * sps
				for i := range sats {
					s := &sats[i]
					want := kernelSolves(r, i, step, func(solved int, m, guess float64) {
						if !newtonConverges(m, e, guess) {
							t.Fatalf("e=%g sps=%g object %d step %d: guess %v is too cold for Newton", e, sps, i, solved, guess)
						}
						_, constant[i] = propagation.TwoBody{}.PositionWarm(s, float64(solved)*sps, constant[i]+s.MeanMotion()*h)
					})
					pos, _, _ := r.positionAt(i, step)
					if got := r.kcache[i]; got != want {
						t.Fatalf("e=%g sps=%g object %d step %d: cache %+v, the solves replayed leave %+v", e, sps, i, step, got, want)
					}
					if step%r.stride == 0 {
						// The solve just made: the knot m steps ahead, or this step.
						solved := step
						if r.stride > 1 {
							solved += r.stride
						}
						m := s.Elements.MeanAnomaly + s.MeanMotion()*(float64(solved)*sps)
						if res := kepler.Residual(want.E, m, e); res > 1e-13 {
							t.Fatalf("e=%g sps=%g object %d step %d: residual %g", e, sps, i, solved, res)
						}
						// Two roots inside the same residual bound: dE ≤ 2e-13/(1 − e).
						if d := mathx.AngleDiff(want.E, constant[i]); d*(1-e) > 2e-13 {
							t.Fatalf("e=%g sps=%g object %d step %d: E = %v, constant guess reaches %v", e, sps, i, solved, want.E, constant[i])
						}
					}
					tol := 1e-6
					if r.stride > 1 {
						tol, _ = knotBound(propagation.TwoBody{}, s, h)
					}
					if cold, _ := (propagation.TwoBody{}).State(s, tSec); pos.Dist(cold) > tol {
						t.Fatalf("e=%g sps=%g object %d step %d: position %v, cold %v, %g km apart (bound %g)", e, sps, i, step, pos, cold, pos.Dist(cold), tol)
					}
				}
			}
			r.release()
		}
	}
}

func TestExtrapolatedGuessNeverFallsBackOnShellPopulation(t *testing.T) {
	// The grid's knots (every 16th step at 1 s) and the hybrid's steps (every
	// one at 9 s): no solve the kernel makes reaches the cold fallback.
	sats, err := population.Generate(population.Config{N: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, sps := range []float64{DefaultGridSeconds, DefaultHybridSeconds} {
		r := kernelRun(t, sats, sps)
		solves := 0
		for step := 0; step < 70*r.stride; step++ {
			for i := range sats {
				s := &sats[i]
				kernelSolves(r, i, step, func(solved int, m, guess float64) {
					solves++
					if !newtonConverges(m, s.Elements.Eccentricity, guess) {
						t.Fatalf("sps=%g object %d (e=%g) step %d: the solve fell back to the cold solver",
							sps, i, s.Elements.Eccentricity, solved)
					}
				})
				r.positionAt(i, step)
			}
		}
		if want := 70 * len(sats); solves < want {
			t.Fatalf("sps=%g: %d solves, want at least %d", sps, solves, want)
		}
		r.release()
	}
}

func TestSortPairsBySatelliteMatchesComparator(t *testing.T) {
	// 10⁵ distinct triples — uniform ones, a dense block sharing A (buckets
	// far above the comparison cutoff at every level), the field corners —
	// then ties, which a delta pass's dirty–dirty pairs bring: every tenth key
	// twice, one key 500 times (a bucket of identical keys above the cutoff).
	rng := mathx.NewSplitMix64(77)
	seen := map[uint64]bool{}
	var keys []uint64
	add := func(a, b int32, step uint32) {
		if k := lockfree.PackPair(a, b, step); a != b && !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for _, a := range []int32{0, 1, lockfree.MaxID - 1} {
		for _, b := range []int32{1, 2, lockfree.MaxID} {
			for _, step := range []uint32{0, 1, lockfree.MaxStep} {
				add(a, b, step)
			}
		}
	}
	for len(keys) < 60000 {
		add(int32(rng.Intn(lockfree.MaxID+1)), int32(rng.Intn(lockfree.MaxID+1)), uint32(rng.Intn(lockfree.MaxStep+1)))
	}
	for len(keys) < 100000 {
		add(7, int32(8+rng.Intn(1500)), uint32(rng.Intn(601)))
	}
	for i := 0; i < 100000; i += 10 {
		keys = append(keys, keys[i])
	}
	for range 500 {
		keys = append(keys, keys[70000])
	}
	allEqual := make([]uint64, 1000)
	for i := range allEqual {
		allEqual[i] = keys[0]
	}
	for name, in := range map[string][]uint64{"mixed": keys, "all-equal": allEqual, "empty": nil} {
		// The reference compares unpacked fields, not keys.
		want := make([]lockfree.Pair, len(in))
		for i, k := range in {
			want[i] = lockfree.UnpackPair(k)
		}
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].A != want[j].A {
				return want[i].A < want[j].A
			}
			if want[i].B != want[j].B {
				return want[i].B < want[j].B
			}
			return want[i].Step < want[j].Step
		})
		got := slices.Clone(in)
		sortPairsBySatellite(got)
		for i := range want {
			if p := lockfree.UnpackPair(got[i]); p != want[i] {
				t.Fatalf("%s, position %d: %+v, the (A, B, Step) comparator puts %+v there", name, i, p, want[i])
			}
		}
	}
}
