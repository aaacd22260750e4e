package core

import (
	"math"
	"sync"

	"repro/internal/filters"
	"repro/internal/lockfree"
	"repro/internal/mathx"
	"repro/internal/propagation"
)

// The hybrid variant of §III: the grid front-end with coarser sampling (and
// therefore larger cells per Eq. 1), followed by the classical orbital filter
// chain, which rejects candidate pairs whose geometry forbids a conjunction
// and supplies tighter node-window search intervals for the survivors —
// trading memory (more candidates per step) for time (fewer steps).
func init() {
	register(frame{
		variant: VariantHybrid,
		sps:     DefaultHybridSeconds,
		filter:  (*run).filterCandidates,
	}, "grid pre-filter with coarse sampling plus the classical orbital filter chain (§III, default)")
}

// DefaultHybridSeconds is the hybrid variant's default sampling step (the
// paper's s_ps = 9 before any memory-driven reduction).
const DefaultHybridSeconds = 9.0

// pairDecision is the (time-independent) filter verdict of one satellite
// pair, which is one run of equal (A, B) in the sorted candidate list: a pair
// flagged at many sampling steps is classified once.
type pairDecision struct {
	class filters.Class
	end   int // the run is candidates [previous decision's end, end)
	nodes []nodeTiming
}

// nodeTiming precomputes the crossing schedule of one passing node for the
// interval construction: satellite A crosses the node ray at
// refTime + k·period, and the encounter window half-width is radius.
type nodeTiming struct {
	refTime float64 // first crossing time of A at or after t = 0
	period  float64 // A's orbital period
	radius  float64 // search-interval half-width (s)
}

// filterCandidates is the hybrid's step 3: the orbital filter chain, once
// per distinct satellite pair (§III step 3; its cost is the "determining if
// orbits are coplanar" share of §V-C1). A pair's candidates are kept or
// dropped as one run, in place in r.keys. Node-crossing pairs search the node
// window; the coplanar ones, and any candidate whose closeness no node
// passage explains, use the grid rule exactly like the grid variant.
func (r *run) filterCandidates() (kept []uint64, interval func(k int) (center, radius float64, ok bool), err error) {
	pairs := r.keys
	decisions, err := r.classifyPairs(pairs)
	if err != nil {
		return nil, nil, err
	}
	// runOf remembers which decision each kept candidate came from.
	kept, runOf, lo := pairs[:0], []int32(nil), 0
	for i := range decisions {
		hi := decisions[i].end
		if decisions[i].class != filters.Rejected {
			kept = append(kept, pairs[lo:hi]...)
			for range hi - lo {
				runOf = append(runOf, int32(i))
			}
		}
		lo = hi
	}
	r.stats.FilterRejected = len(pairs) - len(kept)

	interval = func(k int) (center, radius float64, ok bool) {
		dec := &decisions[runOf[k]]
		if dec.class != filters.NodeCrossing {
			return 0, 0, false
		}
		ts := float64(lockfree.UnpackPair(kept[k]).Step) * r.sps
		gridRadius := 2 * r.cellSize / 7.0 // generous fallback bound, ~km/s
		best, bestDist := 0.0, math.Inf(1)
		bestRadius := 0.0
		for _, n := range dec.nodes {
			// Crossing of the node ray nearest to the sampling step.
			tc := n.refTime + math.Round((ts-n.refTime)/n.period)*n.period
			if d := math.Abs(tc - ts); d < bestDist {
				best, bestDist, bestRadius = tc, d, n.radius
			}
		}
		if math.IsInf(bestDist, 1) || bestDist > bestRadius+2*r.sps+gridRadius {
			// The flagged closeness is not explained by a node passage —
			// fall back to the plain grid interval rule.
			return 0, 0, false
		}
		return best, math.Max(bestRadius, 1), true
	}
	return kept, interval, nil
}

// classifyPairs runs filters.Classify once per run of equal (A, B) in the
// sorted candidate list, in parallel, and precomputes the node-crossing
// schedules. Decision i is the verdict of the i-th run.
func (r *run) classifyPairs(pairs []uint64) ([]pairDecision, error) {
	// Two passes over the run boundaries, so the decisions — tens of
	// megabytes on a dense population — are allocated once, at their size.
	// Two keys of one pair differ in their step bits only.
	starts := func(k int) bool { return k == 0 || pairs[k]^pairs[k-1] > lockfree.MaxStep }
	runs := 0
	for k := range pairs {
		if starts(k) {
			runs++
		}
	}
	decs := make([]pairDecision, 0, runs)
	for k := range pairs {
		if starts(k) {
			decs = append(decs, pairDecision{})
		}
		decs[len(decs)-1].end = k + 1
	}
	var mu sync.Mutex
	perr := r.buildFork.do(r.ctx, r.workers, len(decs), func(_, lo, hi int) {
		var local filters.Stats
		for i := lo; i < hi; i++ {
			dec := &decs[i]
			p := lockfree.UnpackPair(pairs[dec.end-1])
			a := &r.sats[r.idx[p.A]]
			b := &r.sats[r.idx[p.B]]
			g := filters.Classify(a.Elements, b.Elements, filters.Config{ThresholdKm: r.pairThreshold(p.A, p.B)})
			local.Add(g)
			dec.class = g.Class
			if g.Class == filters.NodeCrossing {
				for _, n := range g.Nodes {
					if n.Passes {
						dec.nodes = append(dec.nodes, nodeTimingFor(a, b, n))
					}
				}
			}
		}
		mu.Lock()
		r.stats.FilterStats.Merge(local)
		mu.Unlock()
	})
	if perr != nil {
		return nil, perr
	}
	return decs, nil
}

// nodeTimingFor converts one passing node's geometry into a crossing
// schedule and search radius: satellite A's node-passage times recur with
// its period, and the search window must cover both satellites' anomaly
// windows converted to time.
func nodeTimingFor(a, b *propagation.Satellite, n filters.NodeInfo) nodeTiming {
	elA := a.Elements
	nA, nB := a.MeanMotion(), b.MeanMotion()
	mNode := elA.MeanFromEccentric(elA.EccentricFromTrue(n.FA))
	ref := mathx.NormalizeAngle(mNode-elA.MeanAnomaly) / nA
	radius := n.WindowA/nA + n.WindowB/nB + 2 // +2 s model slack
	return nodeTiming{refTime: ref, period: mathx.TwoPi / nA, radius: radius}
}
