package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/brent"
	"repro/internal/mathx"
	"repro/internal/orbit"
	"repro/internal/pool"
	"repro/internal/propagation"
	"repro/internal/spatial"
)

// oracleEvent is one ground-truth encounter found by dense time sampling.
type oracleEvent struct {
	a, b int32
	tca  float64
	pca  float64
}

// match returns the first of events of the same pair within a few seconds of
// the oracle's TCA.
func (oe oracleEvent) match(events []Conjunction) (Conjunction, bool) {
	for _, c := range events {
		if c.A == oe.a && c.B == oe.b && math.Abs(c.TCA-oe.tca) < 5 {
			return c, true
		}
	}
	return Conjunction{}, false
}

// bruteForceOracle finds every below-threshold distance minimum of every
// pair by sampling at dt — the reference the detectors are validated
// against. Slow and exact (up to dt resolution): the point is independence
// from every data structure under test.
func bruteForceOracle(sats []propagation.Satellite, span, dt, threshold float64) []oracleEvent {
	prop := propagation.TwoBody{}
	var events []oracleEvent
	for i := range sats {
		for j := i + 1; j < len(sats); j++ {
			a, b := &sats[i], &sats[j]
			dist := func(t float64) float64 {
				pa, _ := prop.State(a, t)
				pb, _ := prop.State(b, t)
				return pa.Dist(pb)
			}
			prev2 := dist(0)
			prev1 := dist(dt)
			for t := 2 * dt; t <= span; t += dt {
				cur := dist(t)
				if prev1 <= prev2 && prev1 <= cur && prev1 <= threshold {
					events = append(events, oracleEvent{a: a.ID, b: b.ID, tca: t - dt, pca: prev1})
				}
				prev2, prev1 = prev1, cur
			}
		}
	}
	return events
}

// denseShellPopulation packs satellites into one narrow LEO shell so real
// encounters occur within a short span — the §III-B "hollow sphere" worst
// case in miniature.
func denseShellPopulation(n int, seed uint64) []propagation.Satellite {
	rng := mathx.NewSplitMix64(seed)
	sats := make([]propagation.Satellite, n)
	for i := range sats {
		el := orbit.Elements{
			SemiMajorAxis: rng.UniformRange(6995, 7005),
			Eccentricity:  rng.UniformRange(0, 0.001),
			Inclination:   rng.UniformRange(0.2, math.Pi-0.2),
			RAAN:          rng.UniformRange(0, mathx.TwoPi),
			ArgPerigee:    rng.UniformRange(0, mathx.TwoPi),
			MeanAnomaly:   rng.UniformRange(0, mathx.TwoPi),
		}
		sats[i] = propagation.MustSatellite(int32(i), el)
	}
	return sats
}

// The oracle shell: a random shell with engineered encounters, screened over
// oracleSpan seconds at oracleThreshold km, and the oracle's events at dt.
const (
	oracleSpan      = 2000.0
	oracleThreshold = 40.0
	oracleDt        = 0.25
)

var shellOracleOnce = sync.OnceValues(func() ([]propagation.Satellite, []oracleEvent) {
	// Random phases on crossing orbits rarely coincide, so the population
	// mixes a random shell with engineered encounters of varied geometry
	// (inclination gap, radial offset above/below threshold, meeting time).
	// The oracle validates every pair independently of the construction.
	sats := denseShellPopulation(12, 42)
	rng := mathx.NewSplitMix64(7)
	id := int32(len(sats))
	for k := 0; k < 10; k++ {
		tMeet := rng.UniformRange(100, oracleSpan-100)
		incA := rng.UniformRange(0.2, 1.2)
		incB := incA + rng.UniformRange(0.3, 1.5)
		offset := rng.UniformRange(0, 60) // some above, some below threshold
		elA := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: incA,
			MeanAnomaly: mathx.NormalizeAngle(-orbit.Elements{SemiMajorAxis: 7000}.MeanMotion() * tMeet)}
		elB := orbit.Elements{SemiMajorAxis: 7000 + offset, Eccentricity: 0.0005, Inclination: incB,
			MeanAnomaly: mathx.NormalizeAngle(-orbit.Elements{SemiMajorAxis: 7000 + offset}.MeanMotion() * tMeet)}
		sats = append(sats,
			propagation.MustSatellite(id, elA),
			propagation.MustSatellite(id+1, elB))
		id += 2
	}
	return sats, bruteForceOracle(sats, oracleSpan, oracleDt, oracleThreshold)
})

// shellOracle returns the oracle shell and its events, computed once per
// test binary.
func shellOracle(t *testing.T) ([]propagation.Satellite, []oracleEvent) {
	t.Helper()
	sats, oracle := shellOracleOnce()
	if len(oracle) < 3 {
		t.Fatalf("oracle found only %d events; population not dense enough for a meaningful test", len(oracle))
	}
	return sats, oracle
}

// TestDetectorsAgainstBruteForceOracle is the repository's central
// correctness check: on a dense random shell, both spatial detectors must
// find every encounter the dense-sampling oracle finds (no false
// negatives), with matching TCAs and PCAs, and report no pair the oracle
// rejects (no false positives beyond threshold-edge jitter).
func TestDetectorsAgainstBruteForceOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle sweep is seconds-long; skipped with -short")
	}
	sats, oracle := shellOracle(t)
	const span, threshold = oracleSpan, oracleThreshold
	t.Logf("oracle: %d events across %d pairs", len(oracle), len(sats)*(len(sats)-1)/2)

	warmPool := pool.New()
	detectors := map[string]func([]propagation.Satellite) (*Result, error){
		"grid":   newGrid(Config{ThresholdKm: threshold, SecondsPerSample: 1, DurationSeconds: span, Workers: 2}).Screen,
		"hybrid": newHybrid(Config{ThresholdKm: threshold, DurationSeconds: span, Workers: 2}).Screen,
		// Second run on a private warm pool: the whole pipeline executes
		// from recycled structures and must match the oracle identically.
		"grid-warm-pool": func(s []propagation.Satellite) (*Result, error) {
			det := newGrid(Config{ThresholdKm: threshold, SecondsPerSample: 1, DurationSeconds: span,
				Workers: 2, Pool: warmPool})
			if _, err := det.Screen(s); err != nil {
				return nil, err
			}
			return det.Screen(s)
		},
	}
	// Registry sweep: every registered detector in this test binary runs
	// against the oracle automatically (the out-of-package baselines join
	// via the external battery in registry_battery_test.go).
	for _, d := range Variants() {
		desc := d
		detectors["registry-"+string(desc.Name)] = func(s []propagation.Satellite) (*Result, error) {
			det := desc.New(Config{ThresholdKm: threshold, DurationSeconds: span, Workers: 2})
			return det.ScreenContext(context.Background(), s)
		}
	}
	for name, screen := range detectors {
		res, err := screen(sats)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		events := res.Events(10)

		// Completeness: every oracle event matched by TCA within a few
		// seconds and PCA within oracle sampling error.
		for _, oe := range oracle {
			c, matched := oe.match(events)
			if !matched {
				t.Errorf("%s: MISSED oracle event pair (%d,%d) tca=%.1f pca=%.3f", name, oe.a, oe.b, oe.tca, oe.pca)
			} else if math.Abs(c.PCA-oe.pca) > 0.5 {
				t.Errorf("%s: pair (%d,%d) PCA %.4f vs oracle %.4f", name, oe.a, oe.b, c.PCA, oe.pca)
			}
		}

		// Soundness: every reported event corresponds to a genuine
		// below-threshold approach (verify directly, not via the oracle
		// list, to allow sub-dt events the oracle's grid missed).
		prop := propagation.TwoBody{}
		for _, c := range events {
			a := &sats[c.A]
			b := &sats[c.B]
			pa, _ := prop.State(a, c.TCA)
			pb, _ := prop.State(b, c.TCA)
			d := pa.Dist(pb)
			if math.Abs(d-c.PCA) > 1e-3 {
				t.Errorf("%s: reported PCA %.4f but distance at TCA is %.4f", name, c.PCA, d)
			}
			if d > threshold+1e-6 {
				t.Errorf("%s: reported event above threshold: %.4f km", name, d)
			}
		}
	}
}

// randomOracleSat draws one satellite from three orbit classes — a LEO
// shell, the GEO belt, and eccentric transfer-like orbits — so the refine
// battery covers slow and fast geometry, near-circular and high-e solves.
func randomOracleSat(rng *mathx.SplitMix64, id int32, class int) propagation.Satellite {
	var el orbit.Elements
	switch class {
	case 0: // LEO shell
		el = orbit.Elements{
			SemiMajorAxis: rng.UniformRange(6800, 7400),
			Eccentricity:  rng.UniformRange(0, 0.02),
		}
	case 1: // GEO belt
		el = orbit.Elements{
			SemiMajorAxis: rng.UniformRange(42064, 42264),
			Eccentricity:  rng.UniformRange(0, 0.01),
		}
	default: // eccentric, GTO-like
		rp := rng.UniformRange(6600, 8000)
		ra := rng.UniformRange(12000, 40000)
		el = orbit.Elements{
			SemiMajorAxis: (rp + ra) / 2,
			Eccentricity:  (ra - rp) / (ra + rp),
		}
	}
	el.Inclination = rng.UniformRange(0.05, math.Pi-0.05)
	el.RAAN = rng.UniformRange(0, mathx.TwoPi)
	el.ArgPerigee = rng.UniformRange(0, mathx.TwoPi)
	el.MeanAnomaly = rng.UniformRange(0, mathx.TwoPi)
	return propagation.MustSatellite(id, el)
}

// TestRefineOracleBattery pins the batched warm refiner — pairEvaluator
// feeding refineOffsets, warm-started Kepler solves shared across a run of
// refinements on one pair — against two references, pair for pair:
//
//  1. the sequential cold refiner (refineThreshold, every propagation a cold
//     contour solve): identical outcome, TCA and PCA on every interval; and
//  2. a dense-sampling ground truth of the same interval: whenever the
//     interval holds interior distance minima, the reported (TCA, PCA) must
//     coincide with one of them.
//
// Randomised LEO/GEO/eccentric pairings with random centers, radii and
// thresholds; four consecutive refinements per pair so the warm caches are
// genuinely reused, not rebuilt per call.
func TestRefineOracleBattery(t *testing.T) {
	const span = 4000.0
	prop := propagation.TwoBody{}
	rng := mathx.NewSplitMix64(20260807)
	ref := newRefiner(prop, 25, span)
	ev := &pairEvaluator{prop: prop}
	f := ev.dist2Offset

	const trials = 40
	sats := make([]propagation.Satellite, 2*trials)
	for i := 0; i < trials; i++ {
		sats[2*i] = randomOracleSat(rng, int32(2*i), i%3)
		sats[2*i+1] = randomOracleSat(rng, int32(2*i+1), rng.Intn(3))
	}

	agreed, discards, interiorPinned := 0, 0, 0
	for i := 0; i < trials; i++ {
		a, b := &sats[2*i], &sats[2*i+1]

		// Coarse scan of the pair's separation so half the intervals can be
		// aimed at genuine minima — unaimed random intervals over unrelated
		// orbits are monotone and exercise only the edge rule.
		var coarseMins []float64
		{
			const cdt = 0.5
			prev2, prev1 := math.Inf(1), math.Inf(1)
			for tt := 0.0; tt <= span; tt += cdt {
				pa, _ := prop.State(a, tt)
				pb, _ := prop.State(b, tt)
				cur := pa.Dist(pb)
				if prev1 < prev2 && prev1 <= cur {
					coarseMins = append(coarseMins, tt-cdt)
				}
				prev2, prev1 = prev1, cur
			}
		}

		ev.bind(a, b)
		for k := 0; k < 4; k++ {
			radius := rng.UniformRange(5, 120)
			threshold := rng.UniformRange(5, 50)
			var center float64
			if k%2 == 0 && len(coarseMins) > 0 {
				// Aim at a known minimum, jittered within the interval.
				center = coarseMins[rng.Intn(len(coarseMins))] + rng.UniformRange(-0.4, 0.4)*radius
				center = math.Max(0, math.Min(span, center))
			} else {
				center = rng.UniformRange(0, span)
			}

			tcaC, pcaC, outC := ref.refineThreshold(a, b, center, radius, threshold)
			lo, hi, loCl, hiCl := ref.clampOffsets(center, radius)
			ev.center = center
			tcaW, pcaW, outW := ref.refineOffsets(f, center, lo, hi, loCl, hiCl, threshold)

			if outC != outW {
				t.Errorf("pair %d interval %d: cold outcome %d vs warm %d (center %.1f radius %.1f)",
					i, k, outC, outW, center, radius)
				continue
			}
			agreed++
			if outC == refineEdgeDiscard {
				discards++
				continue
			}
			if math.Abs(tcaC-tcaW) > 0.05 {
				t.Errorf("pair %d interval %d: cold TCA %.6f vs warm %.6f", i, k, tcaC, tcaW)
			}
			if math.Abs(pcaC-pcaW) > 1e-5 {
				t.Errorf("pair %d interval %d: cold PCA %.9f vs warm %.9f", i, k, pcaC, pcaW)
			}

			// Consistency: the reported PCA is the separation at the
			// reported TCA (recomputed independently with cold propagation).
			pa, _ := prop.State(a, tcaC)
			pb, _ := prop.State(b, tcaC)
			if d := pa.Dist(pb); math.Abs(d-pcaC) > 1e-6 {
				t.Errorf("pair %d interval %d: PCA %.9f but separation at TCA is %.9f", i, k, pcaC, d)
			}

			// Dense-sampling ground truth: strict interior minima of the
			// sampled separation over the interval. When any exist and the
			// refiner's minimum is interior, it must be one of them.
			const n = 1500
			dt := (hi - lo) / n
			d := make([]float64, n+1)
			for s := 0; s <= n; s++ {
				tt := center + lo + float64(s)*dt
				qa, _ := prop.State(a, tt)
				qb, _ := prop.State(b, tt)
				d[s] = qa.Dist(qb)
			}
			interior := tcaC-(center+lo) > 1 && (center+hi)-tcaC > 1
			if !interior {
				continue
			}
			matched := false
			for s := 1; s < n; s++ {
				if d[s] < d[s-1] && d[s] <= d[s+1] {
					if math.Abs(tcaC-(center+lo+float64(s)*dt)) <= 2*dt && math.Abs(pcaC-d[s]) <= 1e-2 {
						matched = true
						break
					}
				}
			}
			if !matched {
				t.Errorf("pair %d interval %d: interior minimum (tca %.4f, pca %.6f) not found by dense sampling",
					i, k, tcaC, pcaC)
			} else {
				interiorPinned++
			}
		}
	}
	t.Logf("battery: %d agreed, %d edge discards, %d interior minima pinned to ground truth",
		agreed, discards, interiorPinned)
	if interiorPinned < 20 {
		t.Errorf("only %d interior minima pinned against the oracle; battery too weak", interiorPinned)
	}
}

// TestPrefilterSoundnessAgainstDenseSampling is the pre-filter's oracle: a
// candidate refinement's pre-filter call (pairEvaluator.separated, fed the
// states refinement feeds it) rejects must have a true minimum separation
// above threshold over the whole interval — the bound's entire claim. Dense
// sampling of every rejected interval verifies it; the random rows also
// require both verdicts to occur, so the battery exercises the bound's
// boundary. Under J2 the states carry the osculating conic's velocity, not
// ṙ, and the encounter rows hold the bound to the true minimum itself.
// Numeric with the full J2 force gets the two-body μ/r_p² (gateBounds), which
// its true acceleration exceeds by up to a share 3·J2·(R_e/r)², the J2 term
// over a pole; its rows check that the bound's slack absorbs this. Numeric
// integrates from the epoch on every call, so its rows run fewer trials.
func TestPrefilterSoundnessAgainstDenseSampling(t *testing.T) {
	t.Run("two-body", func(t *testing.T) { randomPrefilterBattery(t, propagation.TwoBody{}, 200) })
	t.Run("j2", func(t *testing.T) { randomPrefilterBattery(t, propagation.J2{}, 200) })
	t.Run("j2-encounters", func(t *testing.T) { encounterPrefilterBattery(t, propagation.J2{}, 600) })
	numericJ2 := propagation.Numeric{Forces: []propagation.Force{propagation.PointMass{}, propagation.J2Force{}}}
	t.Run("numeric-j2", func(t *testing.T) { randomPrefilterBattery(t, numericJ2, 25) })
	t.Run("numeric-j2-encounters", func(t *testing.T) { encounterPrefilterBattery(t, numericJ2, 90) })
}

// minSeparation is the smallest separation of a and b over [center+lo,
// center+hi]: the least of dense samples, polished by Brent around the
// least — never below the true minimum, and close above it.
func minSeparation(prop propagation.Propagator, a, b *propagation.Satellite, center, lo, hi float64, n int) float64 {
	f := func(dt float64) float64 {
		qa, _ := prop.State(a, center+dt)
		qb, _ := prop.State(b, center+dt)
		return qa.Dist2(qb)
	}
	dt := (hi - lo) / float64(n)
	best, at := math.Inf(1), lo
	for s := 0; s <= n; s++ {
		if d := f(lo + float64(s)*dt); d < best {
			best, at = d, lo+float64(s)*dt
		}
	}
	r, _ := brent.Minimize(f, math.Max(lo, at-dt), math.Min(hi, at+dt), 1e-7, 200)
	return math.Sqrt(math.Min(best, r.F))
}

// randomPrefilterBattery draws random pairs, windows and thresholds for the
// given number of trials, and checks every rejection against dense sampling.
func randomPrefilterBattery(t *testing.T, prop propagation.Propagator, trials int) {
	const span = 4000.0
	rng := mathx.NewSplitMix64(777)
	ref := newRefiner(prop, 10, span)

	sats := make([]propagation.Satellite, 40)
	for i := range sats {
		sats[i] = randomOracleSat(rng, int32(i), i%3)
	}
	// Twin pairs: nearly identical orbits whose separation stays small, so
	// the bound cannot clear the threshold — the kept branch must also run.
	twins := make([]propagation.Satellite, 20)
	for i := 0; i < len(twins); i += 2 {
		el := sats[i].Elements
		twins[i] = propagation.MustSatellite(int32(100+i), el)
		el.SemiMajorAxis += rng.UniformRange(0.1, 2)
		el.MeanAnomaly = mathx.NormalizeAngle(el.MeanAnomaly + rng.UniformRange(0, 3e-4))
		twins[i+1] = propagation.MustSatellite(int32(101+i), el)
	}

	rejected, kept := 0, 0
	ev := &pairEvaluator{prop: prop}
	for trial := 0; trial < trials; trial++ {
		var a, b *propagation.Satellite
		if trial%5 == 4 {
			i := 2 * rng.Intn(len(twins)/2)
			a, b = &twins[i], &twins[i+1]
		} else {
			a = &sats[rng.Intn(len(sats))]
			b = &sats[rng.Intn(len(sats))]
		}
		if a == b {
			continue
		}
		center := rng.UniformRange(0, span)
		radius := rng.UniformRange(5, 60)
		threshold := rng.UniformRange(1, 10)
		lo, hi, _, _ := ref.clampOffsets(center, radius)
		ev.bind(a, b)
		pa, va, pb, vb := ev.statesAt(center)
		if !ev.separated(pa, va, pb, vb, lo, hi, threshold) {
			kept++
			continue
		}
		rejected++
		if minD := minSeparation(prop, a, b, center, lo, hi, 2000); minD <= threshold {
			t.Errorf("trial %d: pre-filter rejected pair (%d,%d) but true separation dips to %.4f km <= threshold %.4f",
				trial, a.ID, b.ID, minD, threshold)
		}
	}
	t.Logf("prefilter soundness: %d rejected (all verified), %d kept", rejected, kept)
	if 10*rejected < trials {
		t.Errorf("only %d rejections; soundness battery too weak", rejected)
	}
	if 40*kept < trials {
		t.Errorf("only %d kept; the bound never came close to the threshold", kept)
	}
}

// encounterPrefilterBattery builds pairs that meet at tMeet — near twins, LEO
// crossings at any inclination, and Molniya × LEO at the Molniya perigee —
// one per trial, and windows refinement would search near the meeting, with
// the grid rule's radius at the grid's and the hybrid's default step or a
// node-window radius.
// The threshold is the window's true minimum separation, so any rejection is
// a lost record; the bound must also come within 200 m of the truth often,
// or the battery would test nothing.
func encounterPrefilterBattery(t *testing.T, prop propagation.Propagator, trials int) {
	const span = 4000.0
	rng := mathx.NewSplitMix64(35)
	ref := newRefiner(prop, 10, span)
	ev := &pairEvaluator{prop: prop}
	leo := func(r float64) orbit.Elements {
		return orbit.Elements{SemiMajorAxis: r, Eccentricity: 5e-4, Inclination: rng.UniformRange(0.05, 3.05)}
	}
	tight := 0
	for trial := 0; trial < trials; trial++ {
		var elA, elB orbit.Elements
		switch kind := trial % 3; kind {
		case 0: // near twins: planes a few degrees apart
			elA = leo(rng.UniformRange(6700, 7300))
			elB = elA
			elB.Inclination = math.Min(math.Abs(elB.Inclination+rng.UniformRange(-0.2, 0.2)), 3.1)
			elB.SemiMajorAxis += rng.UniformRange(-0.5, 0.5)
		case 1: // LEO crossings
			elA = leo(rng.UniformRange(6700, 7300))
			elB = leo(elA.SemiMajorAxis + rng.UniformRange(-1, 1))
		case 2: // Molniya at perigee × LEO
			rp := rng.UniformRange(6700, 7000)
			elA = orbit.Elements{SemiMajorAxis: 26600, Eccentricity: 1 - rp/26600, Inclination: 1.107}
			elB = leo(rp + rng.UniformRange(-1, 1))
		}
		tMeet := rng.UniformRange(500, span-500)
		elA.MeanAnomaly = mathx.NormalizeAngle(-elA.MeanMotion() * tMeet)
		elB.MeanAnomaly = mathx.NormalizeAngle(-elB.MeanMotion() * tMeet)
		a, b := propagation.MustSatellite(0, elA), propagation.MustSatellite(1, elB)
		ev.bind(&a, &b)
		_, va, _, vb := ev.statesAt(tMeet)
		var radius float64
		switch trial / 3 % 3 {
		case 0:
			radius = 2 * spatial.CellSize(2, DefaultGridSeconds) / math.Min(va.Norm(), vb.Norm())
		case 1:
			radius = 2 * spatial.CellSize(2, DefaultHybridSeconds) / math.Min(va.Norm(), vb.Norm())
		default:
			radius = rng.UniformRange(5, 60)
		}
		center := tMeet + rng.UniformRange(-1.2, 1.2)*radius
		lo, hi, _, _ := ref.clampOffsets(center, radius)
		pa, va, pb, vb := ev.statesAt(center)
		minD := minSeparation(prop, &a, &b, center, lo, hi, 400)
		if ev.separated(pa, va, pb, vb, lo, hi, minD) {
			t.Errorf("trial %d: pre-filter rejects at the window's true minimum %.4f km (centre %.2f, radius %.2f s)", trial, minD, center, radius)
		}
		if ev.separated(pa, va, pb, vb, lo, hi, minD-0.2) {
			tight++
		}
	}
	t.Logf("encounter soundness: %d windows held to their true minimum, %d with the bound within 200 m", trials, tight)
	if 12*tight < trials {
		t.Errorf("the bound came within 200 m of the truth in only %d windows; battery too weak", tight)
	}
}

// TestRefineEdgeDiscardOwnedByNeighbouringInterval is the §IV-C edge rule's
// property test: slide overlapping grid-style search intervals across the
// span; every interval that discards its minimum as edge-owned must be
// vindicated — each true (dense-sampled) distance minimum is re-found by
// the neighbouring interval that holds it in its interior, so the discard
// rule loses nothing.
func TestRefineEdgeDiscardOwnedByNeighbouringInterval(t *testing.T) {
	const span = 1500.0
	elA := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: 0.3}
	elB := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: 2.8}
	elA.MeanAnomaly = mathx.NormalizeAngle(-elA.MeanMotion() * 777)
	elB.MeanAnomaly = mathx.NormalizeAngle(-elB.MeanMotion() * 777)
	a := propagation.MustSatellite(0, elA)
	b := propagation.MustSatellite(1, elB)
	prop := propagation.TwoBody{}
	ref := newRefiner(prop, 2, span)

	// Dense ground truth: all strict interior minima of the separation.
	const dt = 0.02
	var minima []float64
	prev2, prev1 := math.Inf(1), math.Inf(1)
	for tt := 0.0; tt <= span; tt += dt {
		pa, _ := prop.State(&a, tt)
		pb, _ := prop.State(&b, tt)
		cur := pa.Dist(pb)
		if prev1 < prev2 && prev1 <= cur {
			minima = append(minima, tt-dt)
		}
		prev2, prev1 = prev1, cur
	}
	if len(minima) == 0 {
		t.Fatal("no interior distance minima in the span; property test is vacuous")
	}

	const radius, stride = 30.0, 40.0
	type accept struct{ tca float64 }
	var accepts []accept
	discards := 0
	for c := 0.0; c <= span; c += stride {
		tca, _, outcome := ref.refineThreshold(&a, &b, c, radius, 2)
		if outcome == refineEdgeDiscard {
			discards++
			continue
		}
		accepts = append(accepts, accept{tca: tca})
	}
	if discards == 0 {
		t.Error("no interval ever discarded an edge minimum; property test exercised nothing")
	}

	// Completeness: every true minimum is claimed by some interval.
	for _, m := range minima {
		found := false
		for _, ac := range accepts {
			if math.Abs(ac.tca-m) <= 0.5 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("dense minimum at t=%.2f was never re-found: the edge rule lost it", m)
		}
	}
	// Soundness: every accepted minimum is a true minimum (or a span
	// boundary, where clamped edges legitimately accept without a neighbour).
	for _, ac := range accepts {
		if ac.tca < radius || ac.tca > span-radius {
			continue
		}
		found := false
		for _, m := range minima {
			if math.Abs(ac.tca-m) <= 0.5 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("accepted minimum at t=%.2f matches no dense minimum", ac.tca)
		}
	}
	t.Logf("edge-discard property: %d minima, %d accepts, %d discards", len(minima), len(accepts), discards)
}

// TestGridFindsSubSampleEncounter checks the Eq. 1 guarantee directly: an
// encounter whose below-threshold dip lasts far less than one sampling
// step must still be caught, because the cell size covers the worst-case
// inter-sample motion.
func TestGridFindsSubSampleEncounter(t *testing.T) {
	// Head-on-ish crossing: relative speed ~12 km/s, so a 2 km threshold
	// is undercut for only ~0.3 s — far less than the 1 s sampling step.
	elA := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: 0.3}
	elB := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: 2.8}
	elA.MeanAnomaly = mathx.NormalizeAngle(-elA.MeanMotion() * 777)
	elB.MeanAnomaly = mathx.NormalizeAngle(-elB.MeanMotion() * 777)
	sats := []propagation.Satellite{
		propagation.MustSatellite(0, elA),
		propagation.MustSatellite(1, elB),
	}
	res, err := newGrid(Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: 1500}).Screen(sats)
	if err != nil {
		t.Fatal(err)
	}
	ev := res.Events(5)
	if len(ev) != 1 {
		t.Fatalf("events = %d, want 1 (sub-sample encounter lost)", len(ev))
	}
	if math.Abs(ev[0].TCA-777) > 1 {
		t.Errorf("TCA = %v, want ≈777", ev[0].TCA)
	}
}
