package core

import (
	"math"

	"repro/internal/brent"
	"repro/internal/orbit"
	"repro/internal/propagation"
	"repro/internal/vec3"
)

// refiner performs the PCA/TCA determination of §IV-C: Brent minimisation
// of the squared inter-satellite distance over a candidate interval, with
// the paper's interval-edge rule — a minimum found at an interval border is
// probed slightly beyond, and if the distance keeps decreasing outside, the
// occurrence is discarded (the neighbouring interval owns that minimum).
type refiner struct {
	prop      propagation.Propagator
	threshold float64 // default screening threshold d, km
	span      float64 // screening duration; intervals are clamped to [0, span]
	tolSec    float64 // Brent abscissa tolerance, seconds
}

func newRefiner(prop propagation.Propagator, threshold, span float64) *refiner {
	return &refiner{prop: prop, threshold: threshold, span: span, tolSec: 1e-4}
}

// refineOutcome describes a single refinement attempt.
type refineOutcome int

const (
	refineBelowThreshold refineOutcome = iota // minimum found, PCA ≤ d
	refineAboveThreshold                      // minimum found, PCA > d
	refineEdgeDiscard                         // minimum beyond interval edge
)

// clampOffsets converts a search radius around tCenter into the offset
// interval [lo, hi] (dt = t − tCenter), clamped to the screening span
// [0, span]. The clamped flags tell the edge rule which borders are real
// span boundaries rather than interval seams.
func (r *refiner) clampOffsets(tCenter, radius float64) (lo, hi float64, loClamped, hiClamped bool) {
	lo, hi = -radius, +radius
	if tCenter+lo < 0 {
		lo, loClamped = -tCenter, true
	}
	if tCenter+hi > r.span {
		hi, hiClamped = r.span-tCenter, true
	}
	if hi <= lo {
		hi = lo + 1e-6
	}
	return lo, hi, loClamped, hiClamped
}

// refineOffsets is the structure-independent core of the §IV-C refinement:
// Brent minimisation of a caller-supplied squared-distance function over the
// clamped offset interval, followed by the interval-edge rule. The batched
// refiner passes a pairEvaluator method here so consecutive refinements of
// one satellite share warm-started Kepler solves.
func (r *refiner) refineOffsets(f func(float64) float64, tCenter, lo, hi float64, loClamped, hiClamped bool, threshold float64) (tca, pca float64, outcome refineOutcome) {
	res, _ := brent.Minimize(f, lo, hi, r.tolSec, 100)

	// Interval-edge rule (§IV-C): a minimum at an interior interval border
	// is probed slightly beyond; if the distance keeps falling outside, the
	// real minimum belongs to the neighbouring interval and this occurrence
	// is discarded. Edges that clamp to the screening span are real
	// boundaries — a minimum there is accepted (no neighbouring interval
	// exists beyond the span). The edge tolerance covers Brent's
	// convergence slack (its final abscissa can sit a few tolerances from
	// a boundary minimum).
	width := hi - lo
	edgeTol := math.Max(16*r.tolSec, 1e-3*width)
	probe := math.Max(32*r.tolSec, 0.01*width)
	switch {
	case res.X-lo < edgeTol && !loClamped:
		if f(lo-probe) < res.F {
			return 0, 0, refineEdgeDiscard
		}
	case hi-res.X < edgeTol && !hiClamped:
		if f(hi+probe) < res.F {
			return 0, 0, refineEdgeDiscard
		}
	}

	pca = math.Sqrt(res.F)
	if pca <= threshold {
		return tCenter + res.X, pca, refineBelowThreshold
	}
	return tCenter + res.X, pca, refineAboveThreshold
}

// evalSat is one side of a pairEvaluator: the satellite plus its warm-start
// state — the eccentric anomaly solved at tLast seeds the guess for the next
// solve, so the evaluations of one refinement cost a Newton iteration or two
// per propagation instead of a cold contour solve (the KeplerCache idea of
// the sampling loop, applied to the refine phase).
type evalSat struct {
	sat    *propagation.Satellite
	acc    float64 // bound on ‖r̈‖ under the propagator (gateBounds), km/s²
	dv     float64 // bound on how far the propagator's velocity lies from ṙ (gateBounds), km/s
	ecc    float64 // eccentric anomaly at tLast
	tLast  float64
	warmed bool
}

// pairEvaluator computes squared pair separations for the batched refiner.
// One evaluator lives per refine worker chunk; bind switches it between
// candidates, keeping a side's orbit constants when the satellite is
// unchanged — which the (A, B, Step) candidate sort makes the common case.
type pairEvaluator struct {
	prop   propagation.Propagator
	a, b   evalSat
	center float64 // offset origin of dist2Offset, seconds
}

// bind points the evaluator at a candidate and reports whether satellite a
// was rebound — the batch boundary the PhaseRefine counters expose. Both
// sides start cold: a warm solve's last bits depend on the guess it started
// from, so carrying the anomaly over would make a candidate's TCA depend on
// which candidates the chunk refined before it — and a delta screen, which
// refines a subset, must reproduce the full screen's values bit for bit.
func (e *pairEvaluator) bind(a, b *propagation.Satellite) bool {
	rebound := e.a.sat != a
	if rebound {
		e.a = e.side(a)
	}
	if e.b.sat != b {
		e.b = e.side(b)
	}
	e.a.warmed, e.b.warmed = false, false
	return rebound
}

// side is a fresh evalSat for s with the bounds of the propagator's states.
func (e *pairEvaluator) side(s *propagation.Satellite) evalSat {
	_, acc, dv, _ := gateBounds(e.prop, s, 0)
	return evalSat{sat: s, acc: acc, dv: dv}
}

// separated is refinement's pre-filter call: prefilterReject over the
// offsets [lo, hi] from the bound pair's states at the centre, with both
// sides' acceleration bounds, and the threshold padded by how far their
// velocities may lie from ṙ over the farther end.
func (e *pairEvaluator) separated(pa, va, pb, vb vec3.V, lo, hi, threshold float64) bool {
	pad := (e.a.dv + e.b.dv) * max(math.Abs(lo), math.Abs(hi))
	return prefilterReject(pa, va, pb, vb, lo, hi, e.a.acc+e.b.acc, threshold+pad)
}

// peakAccel bounds the gravitational acceleration anywhere on an orbit:
// μ/r² is largest at perigee. It is the curvature constant of the
// pre-filter's linearisation error bound.
func peakAccel(s *propagation.Satellite) float64 {
	rp := s.Elements.PerigeeRadius()
	return orbit.MuEarth / (rp * rp)
}

// state propagates one side to t, seeded with the side's predicted eccentric
// anomaly (kepler.SolveFrom re-centres any guess and falls back to the cold
// solver, so accuracy never depends on the prediction quality).
func (e *pairEvaluator) state(s *evalSat, t float64) (pos, vel vec3.V) {
	var guess float64
	if s.warmed {
		guess = s.ecc + s.sat.MeanMotion()*(t-s.tLast)
	} else {
		guess = s.sat.Elements.MeanAnomaly + s.sat.MeanMotion()*t // the e → 0 root
	}
	pos, vel, ecc := e.prop.StateWarm(s.sat, t, guess)
	s.ecc, s.tLast, s.warmed = ecc, t, true
	return pos, vel
}

// statesAt evaluates both sides at t — the interval rule and the pre-filter
// consume the states, and the calls warm both caches for the Brent
// evaluations that follow.
func (e *pairEvaluator) statesAt(t float64) (pa, va, pb, vb vec3.V) {
	pa, va = e.state(&e.a, t)
	pb, vb = e.state(&e.b, t)
	return pa, va, pb, vb
}

// dist2Offset is the minimisation objective: squared separation at
// center + dt. Callers hoist the method value once per worker chunk —
// binding it per pair would allocate.
func (e *pairEvaluator) dist2Offset(dt float64) float64 {
	t := e.center + dt
	pa, _ := e.state(&e.a, t)
	pb, _ := e.state(&e.b, t)
	return pa.Dist2(pb)
}

// prefilterReject reports whether a pair's separation provably stays above
// threshold over [tCenter+lo, tCenter+hi], judged from the states at tCenter
// alone — the analytic minimum-distance pre-filter (after Rivero & Baù's
// trajectory bounds) that spares most candidates any Brent evaluation.
//
// The relative motion is linearised at tCenter: d(dt) ≈ d₀ + w·dt with
// d₀ = p_a − p_b, w = v_a − v_b. Each trajectory deviates from its tangent
// line by at most ½·a_max·dt² (Taylor remainder with ‖r̈‖ = μ/r² ≤ μ/r_p²),
// so the true separation obeys
//
//	d(dt) ≥ ‖d₀ + w·dt‖ − ½(a_A + a_B)·dt².
//
// Minimising the linear term over the interval (closed form, clamped) and
// maximising the quadratic remainder at the wider interval end yields a
// sound lower bound: a rejected candidate cannot have a true PCA below
// threshold. The bound weakens quadratically with interval width — wide
// hybrid node windows reject less often, but never wrongly.
func prefilterReject(pa, va, pb, vb vec3.V, lo, hi, accSum, threshold float64) bool {
	d0 := pa.Sub(pb)
	w := va.Sub(vb)
	w2 := w.Dot(w)
	dtStar := 0.0
	if w2 > 1e-18 {
		dtStar = -d0.Dot(w) / w2
		if dtStar < lo {
			dtStar = lo
		}
		if dtStar > hi {
			dtStar = hi
		}
	}
	dlin := d0.Add(w.Scale(dtStar)).Norm()
	worst := math.Max(lo*lo, hi*hi)
	return dlin-0.5*accSum*worst > threshold
}
