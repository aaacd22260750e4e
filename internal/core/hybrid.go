package core

import (
	"sync"

	"repro/internal/filters"
	"repro/internal/lockfree"
)

// The hybrid variant of §III: the grid front-end with coarser sampling (and
// therefore larger cells per Eq. 1), followed by the classical orbital filter
// chain, which rejects candidate pairs whose geometry forbids a conjunction —
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
}

// filterCandidates is the hybrid's step 3: the orbital filter chain, once
// per distinct satellite pair (§III step 3; its cost is the "determining if
// orbits are coplanar" share of §V-C1). A pair's candidates are kept or
// dropped as one run, in place in r.keys. Refinement searches the kept ones
// as the grid variant does: the filter's node windows would add lattice
// intervals to examine but no record (DESIGN.md §2.6).
func (r *run) filterCandidates() (kept []uint64, err error) {
	pairs := r.keys
	decisions, err := r.classifyPairs(pairs)
	if err != nil {
		return nil, err
	}
	kept, lo := pairs[:0], 0
	for i := range decisions {
		hi := decisions[i].end
		if decisions[i].class != filters.Rejected {
			kept = append(kept, pairs[lo:hi]...)
		}
		lo = hi
	}
	r.stats.FilterRejected = len(pairs) - len(kept)
	return kept, nil
}

// classifyPairs runs filters.Classify once per run of equal (A, B) in the
// sorted candidate list, in parallel. Decision i is the verdict of the i-th
// run.
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
	perr := r.buildFork.do(r.ctx, r.workers, forkGrain, len(decs), func(_, lo, hi int) {
		var local filters.Stats
		for i := lo; i < hi; i++ {
			dec := &decs[i]
			p := lockfree.UnpackPair(pairs[dec.end-1])
			a := &r.sats[r.idx[p.A]]
			b := &r.sats[r.idx[p.B]]
			g := filters.Classify(a.Elements, b.Elements, filters.Config{ThresholdKm: r.pairThreshold(p.A, p.B)})
			local.Add(g)
			dec.class = g.Class
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
