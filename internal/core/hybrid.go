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
		Caps:        CapScreenDelta | CapDevice | CapSink | CapObserver,
		New:         func(cfg Config) Detector { return NewHybrid(cfg) },
	})
}

// DefaultHybridSeconds is the hybrid variant's default sampling step (the
// paper's s_ps = 9 before any memory-driven reduction).
const DefaultHybridSeconds = 9.0

// pairDecision caches the per-pair (time-independent) filter verdict so a
// pair flagged at many sampling steps is classified once.
type pairDecision struct {
	class filters.Class
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
	res.Backend = run.exec.ExecutorName()
	if err := run.sampleAllSteps(); err != nil {
		return nil, err
	}

	pairs := run.collectPairs()
	run.stats.CandidatePairs = len(pairs)

	// Step 3: the orbital filter chain, once per distinct satellite pair
	// (§III step 3; its cost is the "determining if orbits are coplanar"
	// share of §V-C1).
	tFil := time.Now()
	decisions, err := run.classifyPairs(pairs)
	if err != nil {
		return nil, err
	}
	kept := pairs[:0]
	for _, p := range pairs {
		if decisions[lockfree.PackPair(p.A, p.B, 0)].class != filters.Rejected {
			kept = append(kept, p)
		}
	}
	run.stats.FilterRejected = len(pairs) - len(kept)
	run.stats.Coplanarity += time.Since(tFil)
	run.observePhase(PhaseFilter, time.Since(tFil), 0)

	// Step 4: refinement. Node-crossing pairs search the node window; the
	// coplanar ones use the grid rule exactly like the grid variant.
	tRef := time.Now()
	interval := func(p lockfree.Pair) (center, radius float64, ok bool) {
		dec := decisions[lockfree.PackPair(p.A, p.B, 0)]
		if dec.class != filters.NodeCrossing {
			return 0, 0, false
		}
		ts := float64(p.Step) * run.sps
		gridRadius := 2 * run.cellSize / 7.0 // generous fallback bound, ~km/s
		best, bestDist := 0.0, math.Inf(1)
		bestRadius := 0.0
		for _, n := range dec.nodes {
			// Crossing of the node ray nearest to the sampling step.
			k := math.Round((ts - n.refTime) / n.period)
			tc := n.refTime + k*n.period
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

// classifyPairs runs filters.Classify over the distinct pairs in parallel
// and precomputes the node-crossing schedules.
func (r *run) classifyPairs(pairs []lockfree.Pair) (map[uint64]pairDecision, error) {
	// Collect distinct pairs.
	uniq := make(map[uint64]lockfree.Pair, len(pairs))
	for _, p := range pairs {
		uniq[lockfree.PackPair(p.A, p.B, 0)] = p
	}
	keys := make([]uint64, 0, len(uniq))
	for k := range uniq {
		keys = append(keys, k)
	}
	decs := make([]pairDecision, len(keys))
	var mu sync.Mutex
	perr := r.exec.ParallelFor(r.ctx, len(keys), func(lo, hi int) {
		var local filters.Stats
		for i := lo; i < hi; i++ {
			p := uniq[keys[i]]
			a := &r.sats[r.idx[p.A]]
			b := &r.sats[r.idx[p.B]]
			g := filters.Classify(a.Elements, b.Elements, r.cfg.Filters.WithThreshold(r.pairThreshold(p.A, p.B)))
			local.Add(g)
			dec := pairDecision{class: g.Class}
			if g.Class == filters.NodeCrossing {
				for _, n := range g.Nodes {
					if !n.Passes {
						continue
					}
					dec.nodes = append(dec.nodes, nodeTimingFor(a, b, n))
				}
			}
			decs[i] = dec
		}
		mu.Lock()
		r.stats.FilterStats.Merge(local)
		mu.Unlock()
	})
	if perr != nil {
		return nil, perr
	}
	out := make(map[uint64]pairDecision, len(keys))
	for i, k := range keys {
		out[k] = decs[i]
	}
	return out, nil
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
