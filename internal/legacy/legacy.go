// Package legacy implements the deterministic all-on-all filter-chain
// screener the paper benchmarks against (its "legacy" variant, a
// single-threaded implementation of the classical approach of §II): every
// pair of objects is passed through the apogee/perigee, coplanarity,
// orbit-path and node time filters, and the survivors' candidate time
// windows are searched for distance minima below the screening threshold.
//
// The implementation is intentionally sequential — the baseline's defining
// property is its O(n²) pair enumeration, and the paper's reference is a
// single-threaded numba-JIT Python program. Algorithmic shape, not
// constant factors, is what the comparison reproduces.
package legacy

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/brent"
	"repro/internal/core"
	"repro/internal/filters"
	"repro/internal/propagation"
)

// Config parameterises the legacy screener.
type Config struct {
	// ThresholdKm is the screening threshold d; 0 selects the paper's 2 km.
	ThresholdKm float64
	// DurationSeconds is the screened span (> 0 required).
	DurationSeconds float64
	// Propagator advances satellites; nil selects propagation.TwoBody{}.
	Propagator propagation.Propagator
	// Filters configures the chain (tolerance knobs only; the threshold
	// comes from ThresholdKm).
	Filters filters.Config
	// FineSampleSeconds is the coarse scan step inside candidate windows
	// used to bracket minima before Brent refinement; 0 selects an
	// automatic fraction of the orbital period.
	FineSampleSeconds float64
	// Workers parallelises the pair loop by dividing the object
	// population across goroutines — the classical parallelisation of the
	// paper's §II (Coppola et al. 2010). ≤1 keeps the paper's
	// single-threaded baseline behaviour.
	Workers int
	// Sink, when non-nil, receives each confirmed conjunction as its
	// pair-row finishes (core's Sink contract: calls serialised, no
	// internal locking needed).
	Sink core.Sink
	// Observer, when non-nil, receives per-row progress: Step is the row
	// index i of the triangular pair loop, Steps the population size, and
	// Candidates the conjunctions confirmed so far.
	Observer core.Observer
}

// Stats counts the screener's funnel.
type Stats struct {
	Pairs        int64         // n·(n−1)/2 pairs enumerated
	Windows      int64         // candidate time windows searched
	Refinements  int64         // Brent searches
	FilterStats  filters.Stats // per-filter outcomes
	Elapsed      time.Duration // total wall time
	CoplanarScan int64         // pairs that required a whole-span scan
}

// Result is the screener output, shaped like the core detectors' result so
// the accuracy experiment can compare them directly.
type Result struct {
	Conjunctions []core.Conjunction
	Stats        Stats
}

// UniquePairs returns the number of distinct pairs among the conjunctions.
func (r *Result) UniquePairs() int {
	seen := map[[2]int32]struct{}{}
	for _, c := range r.Conjunctions {
		seen[[2]int32{c.A, c.B}] = struct{}{}
	}
	return len(seen)
}

// Screener is the legacy all-on-all detector.
type Screener struct {
	cfg Config
}

// New returns a legacy screener.
func New(cfg Config) *Screener { return &Screener{cfg: cfg} }

// Screen runs the chain over every pair in the population.
func (s *Screener) Screen(sats []propagation.Satellite) (*Result, error) {
	return s.ScreenContext(context.Background(), sats)
}

// rowEmitter serialises Sink/Observer delivery as pair-rows complete; a nil
// emitter (no sink, no observer) costs callers nothing.
type rowEmitter struct {
	mu   sync.Mutex
	sink core.Sink
	obs  core.Observer
	rows int // total rows (population size)
	done int // rows completed
	conj int // conjunctions emitted so far
}

// rowDone delivers one finished row's deduplicated conjunctions and a
// progress tick.
func (e *rowEmitter) rowDone(row int, tail []core.Conjunction) {
	if e == nil {
		return
	}
	e.mu.Lock()
	if e.sink != nil {
		for _, c := range tail {
			e.sink.Emit(c)
		}
	}
	e.conj += len(tail)
	e.done++
	if e.obs != nil {
		e.obs.OnStep(core.StepInfo{Step: row, Steps: e.rows, Completed: e.done, Candidates: e.conj})
	}
	e.mu.Unlock()
}

// ScreenContext is Screen with cooperative cancellation: a cancelled ctx
// stops the pair loop at the next row boundary and returns ctx.Err().
func (s *Screener) ScreenContext(ctx context.Context, sats []propagation.Satellite) (*Result, error) {
	if s.cfg.DurationSeconds <= 0 {
		return nil, core.ErrNoDuration
	}
	start := time.Now()
	threshold := s.cfg.ThresholdKm
	if threshold <= 0 {
		threshold = filters.DefaultThreshold
	}
	prop := s.cfg.Propagator
	if prop == nil {
		prop = propagation.TwoBody{}
	}
	fcfg := s.cfg.Filters.WithThreshold(threshold)
	span := s.cfg.DurationSeconds
	done := ctx.Done()
	var emit *rowEmitter
	if s.cfg.Sink != nil || s.cfg.Observer != nil {
		emit = &rowEmitter{sink: s.cfg.Sink, obs: s.cfg.Observer, rows: len(sats)}
	}

	workers := s.cfg.Workers
	if workers <= 1 || len(sats) < 4 {
		res := &Result{}
		for i := 0; i < len(sats); i++ {
			if done != nil {
				select {
				case <-done:
					return nil, ctx.Err()
				default:
				}
			}
			tail := len(res.Conjunctions)
			s.screenRow(prop, sats, i, fcfg, threshold, span, res)
			emit.rowDone(i, res.Conjunctions[tail:])
		}
		res.Stats.Elapsed = time.Since(start)
		sortConjunctions(res.Conjunctions)
		return res, nil
	}

	// Population-dividing parallelisation (§II, Coppola et al. 2010): a
	// shared atomic row counter hands out i-rows, balancing the triangular
	// pair loop; per-worker results merge at the end. Workers re-check the
	// context before pulling each row, so cancellation rounds off within
	// the in-flight rows.
	var next atomic.Int64
	parts := make([]Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(out *Result) {
			defer wg.Done()
			for {
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				i := int(next.Add(1)) - 1
				if i >= len(sats) {
					return
				}
				tail := len(out.Conjunctions)
				s.screenRow(prop, sats, i, fcfg, threshold, span, out)
				emit.rowDone(i, out.Conjunctions[tail:])
			}
		}(&parts[w])
	}
	wg.Wait()
	if done != nil {
		select {
		case <-done:
			return nil, ctx.Err()
		default:
		}
	}
	res := &Result{}
	for i := range parts {
		res.Conjunctions = append(res.Conjunctions, parts[i].Conjunctions...)
		res.Stats.Pairs += parts[i].Stats.Pairs
		res.Stats.Windows += parts[i].Stats.Windows
		res.Stats.Refinements += parts[i].Stats.Refinements
		res.Stats.CoplanarScan += parts[i].Stats.CoplanarScan
		res.Stats.FilterStats.Merge(parts[i].Stats.FilterStats)
	}
	res.Stats.Elapsed = time.Since(start)
	sortConjunctions(res.Conjunctions)
	return res, nil
}

// screenRow processes every pair (i, j>i) of the triangular loop.
func (s *Screener) screenRow(prop propagation.Propagator, sats []propagation.Satellite, i int, fcfg filters.Config, threshold, span float64, res *Result) {
	for j := i + 1; j < len(sats); j++ {
		res.Stats.Pairs++
		a, b := &sats[i], &sats[j]
		g := filters.Classify(a.Elements, b.Elements, fcfg)
		res.Stats.FilterStats.Add(g)
		switch g.Class {
		case filters.Rejected:
			continue
		case filters.Coplanar:
			res.Stats.CoplanarScan++
			s.scanWindows(prop, a, b, []filters.Window{{T0: 0, T1: span}}, threshold, res)
		case filters.NodeCrossing:
			ws := filters.TimeFilter(a.Elements, b.Elements, g, span, 4)
			s.scanWindows(prop, a, b, ws, threshold, res)
		}
	}
}

// scanWindows locates every local distance minimum inside the candidate
// windows: a coarse scan brackets sign changes of the distance slope, and
// Brent refines each bracket ("smart sieve"-style fine search).
func (s *Screener) scanWindows(prop propagation.Propagator, a, b *propagation.Satellite, ws []filters.Window, threshold float64, res *Result) {
	tail := len(res.Conjunctions)
	dist2 := func(t float64) float64 {
		pa, _ := prop.State(a, t)
		pb, _ := prop.State(b, t)
		return pa.Dist2(pb)
	}
	dt := s.cfg.FineSampleSeconds
	if dt <= 0 {
		// A distance local minimum between two orbits cannot be narrower
		// than a small fraction of the faster period; /16 brackets every
		// minimum of near-circular geometry in practice.
		dt = math.Min(a.Period(), b.Period()) / 16
	}
	for _, w := range ws {
		res.Stats.Windows++
		if w.T1 <= w.T0 {
			continue
		}
		// Adapt the scan step to the window: node-passage windows are a few
		// seconds wide, whole-span coplanar windows are hours — both need
		// enough samples to bracket their minima.
		dt := math.Max(math.Min(dt, (w.T1-w.T0)/8), 0.02)
		// Coarse scan for local minima brackets.
		prev2 := dist2(w.T0)
		prev1 := dist2(math.Min(w.T0+dt, w.T1))
		tPrev1 := math.Min(w.T0+dt, w.T1)
		for t := tPrev1 + dt; t <= w.T1+dt/2; t += dt {
			tc := math.Min(t, w.T1)
			cur := dist2(tc)
			if prev1 <= prev2 && prev1 <= cur {
				// Bracketed a minimum around tPrev1.
				lo := math.Max(w.T0, tPrev1-dt)
				hi := math.Min(w.T1, tPrev1+dt)
				res.Stats.Refinements++
				r, _ := brent.Minimize(dist2, lo, hi, 1e-4, 100)
				pca := math.Sqrt(r.F)
				if pca <= threshold {
					res.Conjunctions = append(res.Conjunctions, core.Conjunction{
						A: a.ID, B: b.ID, TCA: r.X, PCA: pca,
					})
				}
			}
			if tc >= w.T1 {
				break
			}
			prev2, prev1, tPrev1 = prev1, cur, tc
		}
		// Window endpoints can hide minima narrower than dt at the edges.
		for _, edge := range []float64{w.T0, w.T1} {
			if d := math.Sqrt(dist2(edge)); d <= threshold {
				res.Stats.Refinements++
				lo := math.Max(w.T0, edge-dt)
				hi := math.Min(w.T1, edge+dt)
				r, _ := brent.Minimize(dist2, lo, hi, 1e-4, 100)
				if pca := math.Sqrt(r.F); pca <= threshold {
					res.Conjunctions = append(res.Conjunctions, core.Conjunction{
						A: a.ID, B: b.ID, TCA: r.X, PCA: pca,
					})
				}
			}
		}
	}
	// This pair's windows can produce duplicate detections of one minimum
	// (bracket + edge refinement, or adjacent windows); merge TCAs that
	// coincide within a second, keeping the smallest PCA. Only the tail
	// appended by this call belongs to the pair.
	res.Conjunctions = append(res.Conjunctions[:tail], dedupSameTCA(res.Conjunctions[tail:])...)
}

// dedupSameTCA merges same-pair conjunctions whose TCAs coincide within one
// second, keeping the smallest PCA. cs holds only one pair's detections.
func dedupSameTCA(cs []core.Conjunction) []core.Conjunction {
	sortConjunctions(cs)
	out := cs[:0]
	for _, c := range cs {
		if n := len(out); n > 0 && math.Abs(out[n-1].TCA-c.TCA) < 1 {
			if c.PCA < out[n-1].PCA {
				out[n-1].PCA, out[n-1].TCA = c.PCA, c.TCA
			}
			continue
		}
		out = append(out, c)
	}
	return out
}

// sortConjunctions orders by (A, B, TCA).
func sortConjunctions(cs []core.Conjunction) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].A != cs[j].A {
			return cs[i].A < cs[j].A
		}
		if cs[i].B != cs[j].B {
			return cs[i].B < cs[j].B
		}
		return cs[i].TCA < cs[j].TCA
	})
}
