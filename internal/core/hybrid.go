package core

import (
	"context"
	"math"
	"sync"
	"time"

	"repro/internal/filters"
	"repro/internal/lockfree"
	"repro/internal/mathx"
	"repro/internal/propagation"
)

// Hybrid is the hybrid conjunction detector of §III: the same grid
// front-end as the grid variant but with coarser sampling (and therefore
// larger cells per Eq. 1), followed by the classical orbital filter chain.
// The filters reject candidate pairs whose geometry forbids a conjunction
// and supply tighter node-window search intervals for the survivors —
// trading memory (more candidates per step) for time (fewer steps).
type Hybrid struct {
	cfg Config
}

// NewHybrid returns a hybrid detector with the given configuration.
func NewHybrid(cfg Config) *Hybrid { return &Hybrid{cfg: cfg} }

func init() {
	Register(VariantHybrid, Descriptor{
		Description: "grid pre-filter with coarse sampling plus the classical orbital filter chain (§III, default)",
		Caps:        CapScreenDelta | CapSink | CapObserver,
		New:         func(cfg Config) Detector { return NewHybrid(cfg) },
	})
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

// Screen runs the hybrid pipeline.
func (d *Hybrid) Screen(sats []propagation.Satellite) (*Result, error) {
	return d.ScreenContext(context.Background(), sats)
}

// ScreenContext is Screen with cooperative cancellation; see
// Grid.ScreenContext for the contract.
func (d *Hybrid) ScreenContext(ctx context.Context, sats []propagation.Satellite) (*Result, error) {
	return d.screen(ctx, sats, nil)
}

// screen runs the hybrid pipeline; a delta below the crossover samples by
// stamp-and-probe and merges the prior result at the end (see delta.go).
func (d *Hybrid) screen(ctx context.Context, sats []propagation.Satellite, delta *DeltaInput) (*Result, error) {
	cfg := d.cfg
	sps := cfg.SecondsPerSample
	if sps <= 0 {
		sps = DefaultHybridSeconds
	}
	run, err := newRun(ctx, cfg, sats, sps, true, delta)
	if err != nil {
		return nil, err
	}
	res := &Result{Variant: VariantHybrid, Backend: "cpu"}
	if run == nil {
		res.Conjunctions = degenerateDeltaMerge(delta)
		return res, nil
	}
	defer run.release()
	if err := run.sampleAllSteps(); err != nil {
		return nil, err
	}

	pairs := run.keys

	// Step 3: the orbital filter chain, once per distinct satellite pair
	// (§III step 3; its cost is the "determining if orbits are coplanar"
	// share of §V-C1). A pair's candidates are kept or dropped as one run;
	// runOf remembers which decision each kept candidate came from.
	tFil := time.Now()
	decisions, err := run.classifyPairs(pairs)
	if err != nil {
		return nil, err
	}
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
	run.stats.FilterRejected = len(pairs) - len(kept)
	run.stats.Coplanarity += time.Since(tFil)
	run.observePhase(PhaseFilter, time.Since(tFil), 0)

	// Step 4: refinement. Node-crossing pairs search the node window; the
	// coplanar ones use the grid rule exactly like the grid variant.
	tRef := time.Now()
	interval := func(k int) (center, radius float64, ok bool) {
		dec := &decisions[runOf[k]]
		if dec.class != filters.NodeCrossing {
			return 0, 0, false
		}
		ts := float64(lockfree.UnpackPair(kept[k]).Step) * run.sps
		gridRadius := 2 * run.cellSize / 7.0 // generous fallback bound, ~km/s
		best, bestDist := 0.0, math.Inf(1)
		bestRadius := 0.0
		for _, n := range dec.nodes {
			// Crossing of the node ray nearest to the sampling step.
			tc := n.refTime + math.Round((ts-n.refTime)/n.period)*n.period
			if d := math.Abs(tc - ts); d < bestDist {
				best, bestDist, bestRadius = tc, d, n.radius
			}
		}
		if math.IsInf(bestDist, 1) || bestDist > bestRadius+2*run.sps+gridRadius {
			// The flagged closeness is not explained by a node passage —
			// fall back to the plain grid interval rule.
			return 0, 0, false
		}
		return best, math.Max(bestRadius, 1), true
	}
	conjs, err := run.refineCandidates(kept, interval)
	if err != nil {
		return nil, err
	}
	if run.stamping {
		conjs = run.mergeWithPrior(conjs, delta.Prior)
	}
	run.stats.Refine += time.Since(tRef)
	run.observePhase(PhaseRefine, time.Since(tRef), len(conjs))

	res.Conjunctions = conjs
	res.Stats = run.finishStats()
	return res, nil
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
	perr := parallelFor(r.ctx, r.workers, len(decs), func(lo, hi int) {
		var local filters.Stats
		for i := lo; i < hi; i++ {
			dec := &decs[i]
			p := lockfree.UnpackPair(pairs[dec.end-1])
			a := &r.sats[r.idx[p.A]]
			b := &r.sats[r.idx[p.B]]
			g := filters.Classify(a.Elements, b.Elements, r.cfg.Filters.WithThreshold(r.pairThreshold(p.A, p.B)))
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
