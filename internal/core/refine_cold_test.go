package core

// The sequential cold refiner: every propagation a cold State call. No
// production path calls it; the refine-oracle battery pins the batched warm
// path (refineCandidates' pairEvaluator + refineOffsets) against it, and the
// refiner tests and benchmarks drive the §IV-C rules through it.

import (
	"math"

	"repro/internal/propagation"
)

// refine searches with the refiner's default threshold.
func (r *refiner) refine(a, b *propagation.Satellite, tCenter, radius float64) (tca, pca float64, outcome refineOutcome) {
	return r.refineThreshold(a, b, tCenter, radius, r.threshold)
}

// dist2At returns the squared distance between two satellites at time t.
func (r *refiner) dist2At(a, b *propagation.Satellite, t float64) float64 {
	pa, _ := r.prop.State(a, t)
	pb, _ := r.prop.State(b, t)
	return pa.Dist2(pb)
}

// intervalRadius implements the grid variant's rule: the search interval's
// half-width is the time the slower of the two satellites needs to cross
// two grid cells, computed from its speed at the sampling step.
func intervalRadius(cellSize float64, a, b *propagation.Satellite, prop propagation.Propagator, tCenter float64) float64 {
	_, va := prop.State(a, tCenter)
	_, vb := prop.State(b, tCenter)
	v := math.Min(va.Norm(), vb.Norm())
	if v < 1e-9 {
		v = 1e-9
	}
	return 2 * cellSize / v
}

// refineThreshold searches [tCenter − radius, tCenter + radius] (clamped to
// the screening span) for the pair's local distance minimum and classifies
// it against the given (possibly uncertainty-widened) threshold.
//
// The minimisation runs in offset coordinates dt = t − tCenter so that
// Brent's relative abscissa tolerance stays absolute-time-scale independent:
// at t ~ 10⁵ s a relative 1e-4 tolerance would otherwise be tens of seconds.
func (r *refiner) refineThreshold(a, b *propagation.Satellite, tCenter, radius, threshold float64) (tca, pca float64, outcome refineOutcome) {
	lo, hi, loClamped, hiClamped := r.clampOffsets(tCenter, radius)
	f := func(dt float64) float64 { return r.dist2At(a, b, tCenter+dt) }
	return r.refineOffsets(f, tCenter, lo, hi, loClamped, hiClamped, threshold)
}
