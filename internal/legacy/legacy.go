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
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/brent"
	"repro/internal/core"
	"repro/internal/filters"
	"repro/internal/propagation"
)

// Importing this package (a blank import suffices) makes "legacy" resolvable
// through core.Lookup, which is how the satconj facade, the CLIs and the
// server reach it — nothing above core names this package.
func init() {
	core.Register(core.VariantLegacy, core.Descriptor{
		Description: "sequential all-on-all filter-chain baseline, the paper's O(n²) reference (§II)",
		Baseline:    true,
		New:         func(cfg core.Config) core.Detector { return &detector{cfg: cfg} },
	})
}

// detector is the legacy all-on-all screener. Config.Workers parallelises
// the pair loop by dividing the population across goroutines — the
// classical parallelisation of the paper's §II (Coppola et al. 2010); ≤1
// keeps the paper's single-threaded baseline. The Sink receives each row's
// conjunctions as the row finishes, and the Observer a per-row tick: Step
// is the row index i of the triangular pair loop, Steps the population
// size, Candidates the conjunctions confirmed so far.
type detector struct {
	cfg core.Config
}

// pairLoop is one screen's constants, shared by its workers.
type pairLoop struct {
	prop      propagation.Propagator
	sats      []propagation.Satellite
	threshold float64
	span      float64
}

// part is one worker's share of the result.
type part struct {
	conjs       []core.Conjunction
	refinements int
	filters     filters.Stats
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

// ScreenContext runs the chain over every pair in the population. A
// cancelled ctx stops the pair loop at the next row boundary and returns
// ctx.Err().
func (d *detector) ScreenContext(ctx context.Context, sats []propagation.Satellite) (*core.Result, error) {
	if d.cfg.DurationSeconds <= 0 {
		return nil, core.ErrNoDuration
	}
	start := time.Now()
	threshold := d.cfg.ThresholdKm
	if threshold <= 0 {
		threshold = filters.DefaultThreshold
	}
	l := &pairLoop{prop: d.cfg.Propagator, sats: sats, threshold: threshold, span: d.cfg.DurationSeconds}
	if l.prop == nil {
		l.prop = propagation.TwoBody{}
	}
	done := ctx.Done()
	var emit *rowEmitter
	if d.cfg.Sink != nil || d.cfg.Observer != nil {
		emit = &rowEmitter{sink: d.cfg.Sink, obs: d.cfg.Observer, rows: len(sats)}
	}

	// A shared atomic row counter hands out i-rows, balancing the triangular
	// pair loop; per-worker parts merge at the end. Workers re-check the
	// context before pulling each row, so cancellation rounds off within the
	// in-flight rows. One worker runs inline, in row order.
	var next atomic.Int64
	work := func(out *part) {
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
			tail := len(out.conjs)
			l.screenRow(i, out)
			emit.rowDone(i, out.conjs[tail:])
		}
	}
	workers := d.cfg.Workers
	if workers <= 1 || len(sats) < 4 {
		workers = 1
	}
	parts := make([]part, workers)
	if workers == 1 {
		work(&parts[0])
	} else {
		var wg sync.WaitGroup
		for w := range parts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(&parts[w])
			}()
		}
		wg.Wait()
	}
	if done != nil {
		select {
		case <-done:
			return nil, ctx.Err()
		default:
		}
	}
	res := &core.Result{Variant: core.VariantLegacy, Backend: "cpu-sequential"}
	for i := range parts {
		res.Conjunctions = append(res.Conjunctions, parts[i].conjs...)
		res.Stats.Refinements += parts[i].refinements
		res.Stats.FilterStats.Merge(parts[i].filters)
	}
	slices.SortFunc(res.Conjunctions, core.CompareConjunctions)
	res.Stats.Detection = time.Since(start)
	return res, nil
}

// screenRow processes every pair (i, j>i) of the triangular loop.
func (l *pairLoop) screenRow(i int, out *part) {
	for j := i + 1; j < len(l.sats); j++ {
		a, b := &l.sats[i], &l.sats[j]
		g := filters.Classify(a.Elements, b.Elements, filters.Config{ThresholdKm: l.threshold})
		out.filters.Add(g)
		switch g.Class {
		case filters.Rejected:
			continue
		case filters.Coplanar:
			l.scanWindows(a, b, []filters.Window{{T0: 0, T1: l.span}}, out)
		case filters.NodeCrossing:
			l.scanWindows(a, b, filters.TimeFilter(a.Elements, b.Elements, g, l.span, 4), out)
		}
	}
}

// scanWindows locates every local distance minimum inside the candidate
// windows: a coarse scan brackets sign changes of the distance slope, and
// Brent refines each bracket ("smart sieve"-style fine search).
func (l *pairLoop) scanWindows(a, b *propagation.Satellite, ws []filters.Window, out *part) {
	tail := len(out.conjs)
	dist2 := func(t float64) float64 {
		pa, _ := l.prop.State(a, t)
		pb, _ := l.prop.State(b, t)
		return pa.Dist2(pb)
	}
	// A distance local minimum between two orbits cannot be narrower than a
	// small fraction of the faster period; /16 brackets every minimum of
	// near-circular geometry in practice.
	dt := math.Min(a.Period(), b.Period()) / 16
	for _, w := range ws {
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
				out.refinements++
				r, _ := brent.Minimize(dist2, lo, hi, 1e-4, 100)
				pca := math.Sqrt(r.F)
				if pca <= l.threshold {
					out.conjs = append(out.conjs, core.Conjunction{
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
			if d := math.Sqrt(dist2(edge)); d <= l.threshold {
				out.refinements++
				lo := math.Max(w.T0, edge-dt)
				hi := math.Min(w.T1, edge+dt)
				r, _ := brent.Minimize(dist2, lo, hi, 1e-4, 100)
				if pca := math.Sqrt(r.F); pca <= l.threshold {
					out.conjs = append(out.conjs, core.Conjunction{
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
	out.conjs = append(out.conjs[:tail], dedupSameTCA(out.conjs[tail:])...)
}

// dedupSameTCA merges same-pair conjunctions whose TCAs coincide within one
// second, keeping the smallest PCA. cs holds only one pair's detections.
func dedupSameTCA(cs []core.Conjunction) []core.Conjunction {
	slices.SortFunc(cs, core.CompareConjunctions)
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
