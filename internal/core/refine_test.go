package core

// Run refinement (refine.go) against dense sampling: the shared reference,
// the fuzz battery, the ownership property and the span-edge rule.

import (
	"context"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/brent"
	"repro/internal/lockfree"
	"repro/internal/mathx"
	"repro/internal/orbit"
	"repro/internal/population"
	"repro/internal/propagation"
	"repro/internal/spatial"
)

// refineRunFor is the part of a run refinement reads, over sats, one worker.
func refineRunFor(prop propagation.Propagator, sats []propagation.Satellite, sps, span, threshold float64) *run {
	idx := make(map[int32]int32, len(sats))
	for i := range sats {
		idx[sats[i].ID] = int32(i)
	}
	return &run{cfg: Config{DurationSeconds: span, ThresholdKm: threshold}, sats: sats, idx: idx, sps: sps,
		threshold: threshold, cellSize: spatial.CellSize(threshold, sps), workers: 1, prop: prop,
		steps: stepCount(span, sps), ctx: context.Background()}
}

// clampWindow is the search window [center − radius, center + radius] ∩
// [0, span] as offsets from center.
func clampWindow(center, radius, span float64) (lo, hi float64) {
	return max(-radius, -center), min(radius, span-center)
}

// runCover is what refinement may examine of a pair: the candidates'
// grid-rule windows, which it must search unless the pre-filter proves them
// apart, and those widened to the lattice, beyond which it must not record.
type runCover struct {
	lattice []bool
	windows [][2]float64
}

func (c runCover) inWindow(t float64) bool {
	return slices.ContainsFunc(c.windows, func(w [2]float64) bool { return w[0] <= t && t <= w[1] })
}

func covered(r *run, a, b *propagation.Satellite, steps []uint32) runCover {
	lat := newLattice(r.sps, r.cfg.DurationSeconds, r.steps)
	cov := runCover{lattice: make([]bool, lat.last)}
	for _, s := range steps {
		t := float64(s) * r.sps
		_, va := r.prop.State(a, t)
		_, vb := r.prop.State(b, t)
		radius := 2 * r.cellSize / max(min(va.Norm(), vb.Norm()), 1e-9)
		lo, hi := clampWindow(t, radius, lat.span)
		kLo, kHi := lat.cover(t+lo, t+hi)
		for k := kLo; k < kHi; k++ {
			cov.lattice[k] = true
		}
		cov.windows = append(cov.windows, [2]float64{t + lo, t + hi})
	}
	return cov
}

// denseMin is a local minimum of a pair's sampled separation, polished by
// Brent, with its prominence: how far it lies below the lower of the sampled
// maxima around it.
type denseMin struct{ t, d, prom float64 }

// denseMinima samples the separation of a and b every dt over [0, span] and
// returns its local minima, the span's ends included when the separation
// rises away from them.
func denseMinima(prop propagation.Propagator, a, b *propagation.Satellite, span, dt float64) []denseMin {
	n := int(math.Ceil(span / dt))
	d := make([]float64, n+1)
	at := func(s int) float64 { return min(float64(s)*dt, span) }
	for s := range d {
		pa, _ := prop.State(a, at(s))
		pb, _ := prop.State(b, at(s))
		d[s] = pa.Dist(pb)
	}
	f := func(t float64) float64 {
		pa, _ := prop.State(a, t)
		pb, _ := prop.State(b, t)
		return pa.Dist2(pb)
	}
	var out []denseMin
	for s := 0; s <= n; s++ {
		left := s == 0 || d[s] < d[s-1]
		right := s == n || d[s] <= d[s+1]
		if !left || !right || (s == 0 && d[1] == d[0]) {
			continue
		}
		m := denseMin{t: at(s), d: d[s]}
		if s > 0 && s < n {
			res, _ := brent.Minimize(f, at(s-1), at(s+1), 1e-7, 200)
			m.t, m.d = res.X, math.Sqrt(res.F)
		}
		peak := math.Inf(1)
		for _, dir := range []int{-1, 1} {
			hi := d[s]
			for j := s + dir; j >= 0 && j <= n && d[j] >= d[j-dir]; j += dir {
				hi = d[j]
			}
			if hi > d[s] || (s > 0 && s < n) {
				peak = min(peak, hi)
			}
		}
		m.prom = peak - m.d
		out = append(out, m)
	}
	return out
}

// checkRecords holds a pair's records to the dense minima below threshold:
// one record for each in a candidate's window, at most one for each in the
// lattice intervals those cover, none for any other. Minima too shallow, too
// near the threshold or too near the covered region's edge for the samples
// to decide are optional; a record must still match a minimum, or be one.
func checkRecords(t *testing.T, label string, recs []Conjunction, mins []denseMin, rc runCover, lat lattice, threshold, dt float64, prop propagation.Propagator, a, b *propagation.Satellite) {
	t.Helper()
	tol := 2*dt + 1e-3
	cov := rc.lattice
	inside := func(x float64) (in, sure bool) {
		k := min(int(x/lat.sps), lat.last-1)
		in = cov[k]
		lo, hi := lat.at(k), lat.at(k+1)
		sure = true
		if x-lo < tol && (k == 0 || cov[k-1] != in) && lo > 0 {
			sure = false
		}
		if hi-x < tol && (k+1 >= len(cov) || cov[k+1] != in) && hi < lat.span {
			sure = false
		}
		return in, sure
	}
	used := make([]int, len(recs))
	for _, m := range mins {
		in, sure := inside(m.t)
		optional := !sure || m.prom < 1e-6 || math.Abs(m.d-threshold) < 1e-6
		if !in && !optional {
			continue
		}
		want := rc.inWindow(m.t) && m.d <= threshold && !optional
		hits := 0
		for i, c := range recs {
			if math.Abs(c.TCA-m.t) <= tol {
				hits++
				used[i]++
			}
		}
		switch {
		case want && hits == 0:
			t.Errorf("%s: dense minimum %.6f km at t = %.4f s (prominence %.2g) has no record", label, m.d, m.t, m.prom)
		case hits > 1:
			t.Errorf("%s: dense minimum %.6f km at t = %.4f s has %d records", label, m.d, m.t, hits)
		case hits == 1 && !in && sure:
			t.Errorf("%s: minimum at t = %.4f s outside every run has a record", label, m.t)
		}
	}
	for i, c := range recs {
		if used[i] > 0 {
			continue
		}
		// Unmatched: the samples may have stepped over it, but it must be a
		// local minimum below threshold.
		f := func(x float64) float64 {
			pa, _ := prop.State(a, x)
			pb, _ := prop.State(b, x)
			return pa.Dist(pb)
		}
		h := 1e-3
		if c.PCA > threshold || (c.TCA-h >= 0 && f(c.TCA-h) < c.PCA-1e-9) || (c.TCA+h <= lat.span && f(c.TCA+h) < c.PCA-1e-9) {
			t.Errorf("%s: record %+v matches no dense minimum and is none", label, c)
		}
	}
	for i := range recs {
		for j := i + 1; j < len(recs); j++ {
			if math.Abs(recs[i].TCA-recs[j].TCA) <= 1e-3 {
				t.Errorf("%s: records %+v and %+v are one minimum", label, recs[i], recs[j])
			}
		}
	}
}

// fuzzPair builds the fuzz battery's pair: near-identical orbits, or orbits
// whose planes cross at di radians, both at their node, the x axis, at
// tMeet. A's plane is inclined inc with its perigee on the node, so an
// equatorial pair at perigee has ρ̇ = 0 exactly.
func fuzzPair(a0, inc, da, de, di, dm, tMeet float64) (propagation.Satellite, propagation.Satellite) {
	elA := orbit.Elements{SemiMajorAxis: a0, Eccentricity: 0.001, Inclination: inc}
	elB := elA
	elB.SemiMajorAxis += da
	elB.Eccentricity += de
	elB.Inclination = math.Abs(elB.Inclination + di)
	elA.MeanAnomaly = mathx.NormalizeAngle(-elA.MeanMotion() * tMeet)
	elB.MeanAnomaly = mathx.NormalizeAngle(-elB.MeanMotion()*tMeet + dm)
	return propagation.MustSatellite(0, elA), propagation.MustSatellite(1, elB)
}

// FuzzRefineRun refines a pair's run of candidate steps (mask picks them,
// gaps included) and holds its records to a dense-sampling reference of the
// lattice intervals the run covers: every minimum below d exactly once, and
// no record that is not a minimum below d. The pair is near-identical orbits
// (slow, co-moving: the curvature and chord bounds' ground) or crossing ones.
func FuzzRefineRun(f *testing.F) {
	f.Add(false, 7000.0, 1.0, 0.5, 1e-5, 1e-5, 1e-4, 100.0, 5.0, uint8(0), uint64(math.MaxUint64))
	f.Add(true, 7000.0, 1.0, 0.3, 0.0, 1.2, 0.0, 77.0, 2.0, uint8(0), uint64(0xff00ff00ff))
	f.Add(false, 7100.0, 1.0, 2.0, 3e-4, 2e-4, 5e-4, 150.0, 20.0, uint8(2), uint64(0xf0f0f0f0f0f0f0f0))
	f.Add(true, 6900.0, 1.0, -1.0, 0.0, 2.5, 1e-4, 250.0, 3.0, uint8(1), uint64(0x5555555555555555))
	f.Add(false, 7000.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 5.0, uint8(0), uint64(math.MaxUint64))                          // ρ̇(0) = 0 at a minimum
	f.Add(false, 300.0, 1.0, 0.0, 0.9e-3, 0.0, -0.0013199999999999983, 4620.0, 19.0, uint8(4), uint64(math.MaxUint64)) // (−, −) ends, a minimum inside
	f.Fuzz(checkRefineRun)
}

// checkRefineRun is FuzzRefineRun's body.
func checkRefineRun(t *testing.T, crossing bool, a0, inc, da, de, di, dm, tMeet, d float64, spsSel uint8, mask uint64) {
	for _, v := range []float64{a0, inc, da, de, di, dm, tMeet, d} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Skip()
		}
	}
	const span = 300.0
	a0 = 6700 + math.Mod(math.Abs(a0), 800)
	da, de, dm = math.Mod(da, 5), math.Mod(math.Abs(de), 1e-3), math.Mod(dm, 2e-3)
	inc = math.Mod(math.Abs(inc), 1.5)
	if crossing {
		di = 0.05 + math.Mod(math.Abs(di), 1.5)
	} else {
		di = math.Mod(di, 1e-3)
	}
	tMeet = math.Mod(math.Abs(tMeet), 6000) // about an orbit: any phase
	d = max(math.Mod(math.Abs(d), 20), 0.1)
	sps := []float64{1, 2, 9, 30, span}[spsSel%5]
	a, b := fuzzPair(a0, inc, da, de, di, dm, tMeet)
	sats := []propagation.Satellite{a, b}
	r := refineRunFor(propagation.TwoBody{}, sats, sps, span, d)
	var keys []uint64
	var steps []uint32
	for k := range r.steps {
		if mask>>(k%64)&1 != 0 {
			keys = append(keys, lockfree.PackPair(0, 1, uint32(k)))
			steps = append(steps, uint32(k))
		}
	}
	if len(keys) == 0 {
		t.Skip()
	}
	recs, err := r.refineCandidates(keys)
	if err != nil {
		t.Fatal(err)
	}
	const dt = 0.02
	lat := newLattice(sps, span, r.steps)
	checkRecords(t, "run", recs, denseMinima(r.prop, &a, &b, span, dt), covered(r, &a, &b, steps), lat, d, dt, r.prop, &a, &b)
}

// TestRefineRunOwnsEachMinimumOnce is the ownership property: lattice
// interval k owns the minima in (t_k, t_k+1] and a pair belongs to the chunk
// holding its first candidate, so every split of a debris cloud's candidates
// into worker chunks, on one to four refiners, returns the one-worker records
// bit for bit; and on the first pairs, every dense minimum below d in their
// runs is one record.
func TestRefineRunOwnsEachMinimumOnce(t *testing.T) {
	const span, d = 300.0, 2.0
	sats := fragmentationCloud(t, 300, span)
	r := sampledGridRun(t, Config{ThresholdKm: d, SecondsPerSample: 1, DurationSeconds: span, Workers: 1}, sats, false)
	keys := r.keys
	if len(keys) < 200 {
		t.Fatalf("vacuous: %d candidates", len(keys))
	}
	want, err := r.refineCandidates(keys)
	if err != nil {
		t.Fatal(err)
	}
	lat := newLattice(r.sps, span, r.steps)
	rng := rand.New(rand.NewPCG(7, 9))
	for trial := range 16 {
		workers := 1 + trial%4
		refiners := make([]*pairRefiner, workers)
		for w := range refiners {
			refiners[w] = newPairRefiner(r.prop, lat)
		}
		var got []Conjunction
		for lo := 0; lo < len(keys); {
			hi := min(len(keys), lo+1+rng.IntN(max(len(keys)/5, 2)))
			p := refiners[rng.IntN(workers)]
			p.out = p.out[:0]
			r.refineRange(p, keys, lo, hi)
			got = append(got, p.out...)
			lo = hi
		}
		slices.SortFunc(got, CompareConjunctions)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d refiners): %d records, one worker %d", trial, workers, len(got), len(want))
		}
	}
	for w := 2; w <= 4; w++ {
		r.workers = w
		if got, err := r.refineCandidates(keys); err != nil || !slices.Equal(got, want) {
			t.Fatalf("%d workers: %d records (err %v), one worker %d", w, len(got), err, len(want))
		}
	}
	// Dense oracle on the first pairs.
	checked := 0
	for lo := 0; lo < len(keys) && checked < 6; checked++ {
		hi := lo + 1
		for hi < len(keys) && keys[hi]^keys[lo] <= lockfree.MaxStep {
			hi++
		}
		p := lockfree.UnpackPair(keys[lo])
		a, b := &sats[r.idx[p.A]], &sats[r.idx[p.B]]
		var steps []uint32
		for _, k := range keys[lo:hi] {
			steps = append(steps, lockfree.UnpackPair(k).Step)
		}
		var recs []Conjunction
		for _, c := range want {
			if c.A == min(p.A, p.B) && c.B == max(p.A, p.B) {
				recs = append(recs, c)
			}
		}
		const dt = 0.02
		checkRecords(t, "pair", recs, denseMinima(r.prop, a, b, span, dt), covered(r, a, b, steps), lat, d, dt, r.prop, a, b)
		lo = hi
	}
	t.Logf("%d candidates → %d records; dense oracle on %d pairs", len(keys), len(want), checked)
}

// TestRefinerSpanClampNoDiscard pins the span-edge rule: a minimum at t = 0
// has no interval before it, so the run starting there owns it.
func TestRefinerSpanClampNoDiscard(t *testing.T) {
	a, b := meetingPair(0, 1, 0, 1.1, 0) // encounter at t = 0
	r := refineRunFor(propagation.TwoBody{}, []propagation.Satellite{a, b}, 1, 2000, 2)
	recs, err := r.refineCandidates([]uint64{lockfree.PackPair(0, 1, 0), lockfree.PackPair(0, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].TCA != 0 || recs[0].Step != 0 || recs[0].PCA > 0.5 {
		t.Fatalf("records %+v, want one at t = 0", recs)
	}
}

// fragmentationCloud is n fragments of a LEO breakup 6,000 s before the
// epoch, dispersed by up to 50 m/s: slow, co-moving pairs that stay close.
func fragmentationCloud(t *testing.T, n int, span float64) []propagation.Satellite {
	t.Helper()
	parent := orbit.Elements{SemiMajorAxis: 7100, Eccentricity: 0.001, Inclination: 1.7, RAAN: 1.0, ArgPerigee: 0.5, MeanAnomaly: 0.3}
	sats, err := population.Fragmentation(population.FragmentationConfig{Parent: parent, TimeOfBreakup: -6000, N: n, DeltaVKmS: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sats
}
