package core

// The sharded detector (DESIGN.md §15): million-object screening with a
// memory ceiling bounded by the largest shard, not the catalogue.
//
// The catalogue is partitioned into radial orbital bands (internal/band)
// padded by half the effective screening threshold, so every pair that can
// possibly conjunct is co-resident in at least one band — the same shell
// geometry as the classical apogee/perigee filter. Each band is screened
// independently by a registered inner detector over just its residents
// (owned objects plus the boundary "halo" replicas the padding pulls in),
// with the per-shard population streamed through pool.GetSatBuf so
// back-to-back shards reuse one buffer. Cross-shard conjunctions are found
// in every band both objects touch; the ownership rule — a pair belongs to
// band max(loA, loB) — keeps exactly one copy, pinned against the unsharded
// detector by the shard differential battery.
//
// Shard geometry matches the unsharded grid exactly: every shard screens
// inside the full population's simulation cube with the full-size cells, so
// a co-resident pair generates the same candidates (and therefore the same
// refined TCA/PCA) as the unsharded run — the sharded-vs-unsharded
// agreement is equality, not tolerance.
//
// When Config.Shards is zero the §V-B sizing model picks the shard count:
// the largest shard whose grid-screening structures fit
// model.DefaultShardBudgetBytes determines ⌈n/m⌉. Populations that fit one
// shard — and every other degenerate input — fall back to the plain inner
// detector, relabelled.
//
// Like the orbital filters, the band assignment is computed from osculating
// perigee/apogee at epoch and assumes a radial-extent-preserving propagator
// (two-body, secular J2); see DESIGN.md §15 for the drag caveat.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/band"
	"repro/internal/model"
	"repro/internal/propagation"
	"repro/internal/spatial"
)

// VariantSharded is the registered sharded wrapper around the grid
// detector.
const VariantSharded Variant = "sharded-grid"

func init() {
	Register(VariantSharded, Descriptor{
		Description: "radial-band sharding over the grid detector: bounded per-shard memory, halo-deduplicated merge, model-driven shard count (§V-B)",
		Caps:        CapScreenDelta | CapSink | CapObserver,
		New:         func(cfg Config) Detector { return NewSharded(cfg, VariantGrid) },
	})
}

// Sharded screens a population in radial-band shards, delegating each shard
// to the named inner registered detector.
type Sharded struct {
	cfg   Config
	inner Variant
}

// NewSharded returns a sharded detector wrapping the named inner variant.
// The inner variant is resolved through the registry at screen time, so a
// Sharded value can be constructed before its inner detector registers.
func NewSharded(cfg Config, inner Variant) *Sharded {
	return &Sharded{cfg: cfg, inner: inner}
}

// Screen is ScreenContext without cancellation.
func (d *Sharded) Screen(sats []propagation.Satellite) (*Result, error) {
	return d.ScreenContext(context.Background(), sats)
}

// ScreenContext partitions, screens every shard (ShardConcurrency at a
// time), and merges the owned conjunctions into one sorted result. The
// aggregate stats sum the per-shard phase durations and counters; GridSlots
// reports the largest single shard's — the run's actual peak structure size,
// since at most ShardConcurrency shards are live at once.
func (d *Sharded) ScreenContext(ctx context.Context, sats []propagation.Satellite) (*Result, error) {
	return d.screen(ctx, sats, nil)
}

// ScreenDelta re-screens incrementally by delegation: a delta pass builds no
// N-sized structure (delta.go), so it needs no bands — the inner detector's
// delta pass runs once over the whole population, in the cube every shard
// screens in, so a sharded full screen's result is a valid Prior. Past the
// crossover the delta is validated and the sharded full screen runs instead.
func (d *Sharded) ScreenDelta(ctx context.Context, sats []propagation.Satellite, delta DeltaInput) (*Result, error) {
	return d.screen(ctx, sats, &delta)
}

func (d *Sharded) screen(ctx context.Context, sats []propagation.Satellite, delta *DeltaInput) (*Result, error) {
	cfg := d.cfg
	if cfg.DurationSeconds <= 0 {
		return nil, ErrNoDuration
	}
	desc, ok := Lookup(d.inner)
	if !ok {
		return nil, fmt.Errorf("core: sharded detector: unknown inner variant %q", d.inner)
	}
	name := Variant("sharded-" + string(d.inner))
	if delta != nil && stampingPays(len(delta.Dirty), len(sats)) {
		return d.screenUnsharded(ctx, desc, name, sats, delta)
	}

	sps := cfg.SecondsPerSample
	if sps <= 0 {
		sps = DefaultGridSeconds
	}
	threshold := cfg.threshold()
	effThreshold := threshold
	if cfg.Uncertainty != nil {
		maxU, err := maxUncertainty(cfg.Uncertainty, sats)
		if err != nil {
			return nil, err
		}
		effThreshold += 2 * maxU
	}

	shards := cfg.Shards
	if shards <= 0 {
		shards = model.ShardCountForBudget(len(sats), cfg.DurationSeconds, threshold, sps, 0)
	}
	if shards < 2 || len(sats) < 2 {
		return d.screenUnsharded(ctx, desc, name, sats, delta)
	}
	// Padding each object's radial interval by d_eff/2 makes any
	// conjunctable pair co-resident somewhere (band package doc); the 1 µm
	// slack absorbs the float rounding of the halved threshold.
	asn := band.Partition(sats, shards, effThreshold/2+1e-9)
	if asn.Bands() < 2 {
		return d.screenUnsharded(ctx, desc, name, sats, delta)
	}

	pl := cfg.pool()
	idx := pl.GetIDIndex(len(sats))
	err := validatePopulation(idx, sats)
	if err == nil && delta != nil {
		_, err = delta.validate(idx)
	}
	if err != nil {
		pl.PutIDIndex(idx)
		return nil, err
	}
	defer pl.PutIDIndex(idx)

	innerCfg := cfg
	innerCfg.Shards = 1 // an inner sharded detector must not recurse
	innerCfg.ShardConcurrency = 0
	if innerCfg.HalfExtentKm <= 0 {
		// The full population's cube, not the shard's: identical grid
		// geometry in every shard makes per-pair candidates — and refined
		// TCAs/PCAs — bit-identical to the unsharded screen.
		innerCfg.HalfExtentKm = autoHalfExtent(sats, spatial.CellSize(effThreshold, sps))
	}

	conc := cfg.ShardConcurrency
	if conc <= 0 {
		conc = (runtime.GOMAXPROCS(0) + 1) / 2
		if conc > 4 {
			conc = 4
		}
	}
	if conc > asn.Bands() {
		conc = asn.Bands()
	}
	if conc < 1 {
		conc = 1
	}
	if conc > 1 {
		// Divide the worker budget across concurrent shards instead of
		// oversubscribing the executor.
		if w := cfg.workers() / conc; w >= 1 {
			innerCfg.Workers = w
		} else {
			innerCfg.Workers = 1
		}
	}

	counts := asn.ResidentCounts()
	screenable := 0
	for _, c := range counts {
		if c >= 2 {
			screenable++
		}
	}
	// Largest shard first: the first screen warms the pool with structures
	// every smaller shard fits into, so back-to-back shards allocate nothing
	// and the retained memory converges on one (per concurrent worker) copy
	// of the largest shard's structures — the memory ceiling DESIGN.md §15
	// argues for. Any-order screening would re-allocate whenever a shard
	// exceeds all of its predecessors, retaining a geometric ladder of
	// near-duplicate buffers.
	order := make([]int, asn.Bands())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return counts[order[x]] > counts[order[y]] })
	fan := &shardFanIn{
		sink:     cfg.Sink,
		observer: cfg.Observer,
		bands:    screenable,
		ownerOf: func(a, b int32) int {
			return band.OwnerOfBands(asn.Lo(int(idx[a])), asn.Lo(int(idx[b])))
		},
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mergeMu  sync.Mutex
		firstErr error
		merged   []Conjunction
		agg      PhaseStats
		backend  string
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				o := int(next.Add(1)) - 1
				if o >= len(order) || runCtx.Err() != nil {
					return
				}
				s := order[o]
				res, err := screenShard(runCtx, desc, innerCfg, fan, sats, asn, s, counts[s])
				if err != nil {
					mergeMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mergeMu.Unlock()
					cancel()
					return
				}
				kept := res.Conjunctions[:0]
				for _, c := range res.Conjunctions {
					if fan.ownerOf(c.A, c.B) == s {
						kept = append(kept, c)
					}
				}
				mergeMu.Lock()
				merged = append(merged, kept...)
				accumulateShardStats(&agg, res.Stats)
				if res.Stats.Steps > 0 || backend == "" {
					backend = res.Backend
				}
				mergeMu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	agg.Shards = asn.Bands()
	if delta != nil {
		agg.DirtyObjects = len(delta.Dirty)
	}
	sortConjunctions(merged)
	return &Result{Variant: name, Backend: backend, Conjunctions: merged, Stats: agg}, nil
}

// screenUnsharded is the single-shard fallback: the plain inner detector —
// its delta pass when there is a delta — relabelled so callers still see the
// variant they asked for.
func (d *Sharded) screenUnsharded(ctx context.Context, desc Descriptor, name Variant, sats []propagation.Satellite, delta *DeltaInput) (*Result, error) {
	cfg := d.cfg
	cfg.Shards = 1 // a sharded inner must not re-derive a shard count
	cfg.ShardConcurrency = 0
	var res *Result
	var err error
	if det := desc.New(cfg); delta == nil {
		res, err = det.ScreenContext(ctx, sats)
	} else if inc, ok := det.(DeltaDetector); ok {
		res, err = inc.ScreenDelta(ctx, sats, *delta)
	} else {
		err = fmt.Errorf("core: sharded detector: inner variant %q has no incremental mode", d.inner)
	}
	if err != nil {
		return nil, err
	}
	res.Variant = name
	res.Stats.Shards = 1
	return res, nil
}

// screenShard streams band s's residents into a pooled buffer and screens
// them with a fresh inner detector. The buffer round-trips through the pool
// on every exit path, so the population memory held at any instant is the
// live shards', not the catalogue's.
func screenShard(ctx context.Context, desc Descriptor, base Config, fan *shardFanIn, sats []propagation.Satellite, asn *band.Assignment, s, residents int) (*Result, error) {
	pl := base.pool()
	buf := pl.GetSatBuf(residents)
	defer func() { pl.PutSatBuf(buf) }()
	for i := range sats {
		if asn.Resident(i, s) {
			buf = append(buf, sats[i])
		}
	}
	cfg := base
	if fan.sink != nil {
		cfg.Sink = shardSink{f: fan, band: s}
	}
	if fan.observer != nil {
		cfg.Observer = shardObserver{f: fan, band: s}
	}
	return desc.New(cfg).ScreenContext(ctx, buf)
}

// accumulateShardStats folds one shard's stats into the aggregate:
// durations and counters sum; the structure capacities keep the per-shard
// maximum (the run's true peak, since shards release before the next
// begins).
func accumulateShardStats(agg *PhaseStats, st PhaseStats) {
	agg.Insertion += st.Insertion
	agg.Freeze += st.Freeze
	agg.Detection += st.Detection
	agg.Sort += st.Sort
	agg.Refine += st.Refine
	agg.Coplanarity += st.Coplanarity
	agg.Steps += st.Steps
	agg.CandidatePairs += st.CandidatePairs
	agg.DirtyObjects += st.DirtyObjects
	agg.PriorRetained += st.PriorRetained
	agg.FilterRejected += st.FilterRejected
	agg.PrefilterRejected += st.PrefilterRejected
	agg.Refinements += st.Refinements
	agg.RefineBatches += st.RefineBatches
	agg.OutOfBounds += st.OutOfBounds
	agg.GridSlots = max(agg.GridSlots, st.GridSlots)
	agg.FilterStats.Merge(st.FilterStats)
}

// shardFanIn serialises the per-shard detectors' streaming callbacks onto
// the caller's single Sink/Observer, preserving both contracts (calls are
// never concurrent). The sink side additionally applies the ownership rule
// in flight, so a streamed consumer sees each cross-shard conjunction
// exactly once — the same set the merged Result materialises.
type shardFanIn struct {
	mu         sync.Mutex
	sink       Sink
	observer   Observer
	ownerOf    func(a, b int32) int
	bands      int // shards large enough to run (≥2 residents)
	totalSteps int
	stepsDone  int
}

// shardSink forwards owned conjunctions of one shard to the caller's sink.
type shardSink struct {
	f    *shardFanIn
	band int
}

// Emit implements Sink.
func (s shardSink) Emit(c Conjunction) {
	f := s.f
	f.mu.Lock()
	if f.ownerOf(c.A, c.B) == s.band {
		f.sink.Emit(c)
	}
	f.mu.Unlock()
}

// shardObserver forwards one shard's progress, rescaling the step totals to
// the whole run (each screenable shard walks the same span). Phase events
// pass through as-is: a stream consumer sees one phase sequence per shard,
// which is exactly what executes.
type shardObserver struct {
	f    *shardFanIn
	band int
}

// OnStep implements Observer.
func (o shardObserver) OnStep(si StepInfo) {
	f := o.f
	f.mu.Lock()
	if f.totalSteps == 0 {
		f.totalSteps = si.Steps * f.bands
	}
	f.stepsDone++
	si.Steps = f.totalSteps
	si.Completed = f.stepsDone
	f.observer.OnStep(si)
	f.mu.Unlock()
}

// OnPhase implements Observer.
func (o shardObserver) OnPhase(pi PhaseInfo) {
	f := o.f
	f.mu.Lock()
	f.observer.OnPhase(pi)
	f.mu.Unlock()
}
