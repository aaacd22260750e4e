package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lockfree"
	"repro/internal/mathx"
	"repro/internal/pool"
	"repro/internal/propagation"
	"repro/internal/spatial"
	"repro/internal/vec3"
)

func init() {
	register(frame{
		variant: VariantGrid,
		sps:     DefaultGridSeconds,
	}, "purely grid-based screening: fine sampling, Eq. 1 cells, every candidate refined (§III)")
}

// DefaultGridSeconds is the grid variant's default sampling step.
const DefaultGridSeconds = 1.0

// frame is what one registration of the §III detector brings to it: the
// grid and hybrid variants differ in these fields and nothing else.
type frame struct {
	variant Variant
	sps     float64 // default sampling step s_ps
	// filter, when non-nil, is step 3: the candidates refinement sees.
	filter func(r *run) (kept []uint64, err error)
}

// register adds f to the registry as a detector.
func register(f frame, description string) {
	Register(f.variant, Descriptor{
		Description: description,
		New:         func(cfg Config) Detector { return &detector{cfg: cfg, frame: &f, knotSeconds: knotSeconds} },
	})
}

// detector runs the four steps of §III under one frame: (1) upfront
// allocation, (2) sampling into candidate pairs, (3) the frame's filter, if
// it has one, (4) PCA/TCA refinement.
type detector struct {
	cfg Config
	*frame
	knotSeconds float64 // h, the build kernel's knot spacing: knotSeconds except in this package's tests
}

// ScreenContext returns every conjunction below the screening threshold in
// [0, DurationSeconds]. When ctx is cancelled the pipeline unwinds within
// about one sampling step, returns ctx.Err(), and hands every pooled
// structure back before returning.
func (d *detector) ScreenContext(ctx context.Context, sats []propagation.Satellite) (*Result, error) {
	return d.screen(ctx, sats, nil)
}

// ScreenDelta screens incrementally; see DeltaInput for the contract. The
// result is equivalent to a full screen of the same population at the
// candidate cost of the dirty set's neighbourhood. Past the crossover
// (stampingPays) the delta is validated and a plain full screen runs instead,
// with PriorRetained = 0.
func (d *detector) ScreenDelta(ctx context.Context, sats []propagation.Satellite, delta DeltaInput) (*Result, error) {
	return d.screen(ctx, sats, &delta)
}

// screen is the frame itself; an incremental pass (setDelta) merges the
// prior result at the end.
func (d *detector) screen(ctx context.Context, sats []propagation.Satellite, delta *DeltaInput) (*Result, error) {
	sps := d.cfg.SecondsPerSample
	if sps <= 0 {
		sps = d.sps
	}
	r, err := newRun(ctx, d.cfg, sats, sps, d.knotSeconds, delta)
	if err != nil {
		return nil, err
	}
	if r == nil { // degenerate population (<2 satellites)
		return &Result{Variant: d.variant, Backend: "cpu", Conjunctions: degenerateDeltaMerge(delta)}, nil
	}
	defer r.release()
	return d.screenRun(r, delta)
}

// screenRun runs steps 2–4 of the frame on a run newRun built.
func (d *detector) screenRun(r *run, delta *DeltaInput) (*Result, error) {
	tSample := time.Now()
	if err := r.sampleAllSteps(); err != nil {
		return nil, err
	}
	r.observePhase(PhaseSample, time.Since(tSample), 0)

	pairs := r.keys
	if d.filter != nil {
		tFil := time.Now()
		var err error
		if pairs, err = d.filter(r); err != nil {
			return nil, err
		}
		r.stats.Coplanarity += time.Since(tFil)
		r.observePhase(PhaseFilter, time.Since(tFil), 0)
	}

	tRef := time.Now()
	conjs, err := r.refineCandidates(pairs)
	if err != nil {
		return nil, err
	}
	if r.incremental {
		conjs = r.mergeWithPrior(conjs, delta.Prior)
	}
	r.stats.Refine += time.Since(tRef)
	r.observePhase(PhaseRefine, time.Since(tRef), len(conjs))

	return &Result{Variant: d.variant, Backend: "cpu", Conjunctions: conjs, Stats: r.finishStats()}, nil
}

// run holds the shared state of one screening execution.
// Its buffers and tables, and its ID index unless a session owns it, are
// pooled: release returns them, after which the run must not be used.
type run struct {
	cfg         Config
	pool        *pool.Pool
	sats        []propagation.Satellite
	idx         map[int32]int32
	sps         float64
	threshold   float64
	cellSize    float64
	grid        *spatial.Grid
	entries     []lockfree.Cell // slot 0 of the step loop's entry ring, one {key, index, radius} per object
	cellBuf     []lockfree.Cell // the scan's sort buffer: a step's cells in key order land in it or back in the entries
	sortHist    sortHist        // the scan's radix histograms, pooled
	gate        radialGate      // the sweep's gate; its tables are pooled
	motion      motionTest      // full screen: the gate's motion test, on if gate.motion points here
	gated       gateCounts      // candidates each test of the gate dropped
	scanBufs    [][]uint64      // per-worker packed candidate keys, appended to for the whole run
	keys        []uint64        // collectPairs: every candidate of the run, in (A, B, Step) order
	workers     int
	prop        propagation.Propagator
	kcache      []propagation.KeplerCache // per-satellite warm-start state of positionAt
	stride      int                       // m: positionAt solves every m-th step and interpolates between
	pad         float64                   // PositionPadKm: an interpolated position nearer a cell face is solved instead
	knots       []propagation.Knots       // m > 1, pooled: each object's interpolant over its current knot interval
	steps       int
	listed      []int32 // what the step's build keys, by place: nil, every object; a full screen's interval (listInterval), or a delta pass's dirtyIdx first (listWindow)
	unread      int     // places below it are solved and the rest read from the track: the length of a delta pass's first two parts, the same every window; N on a full screen
	oob         atomic.Uint64
	stats       PhaseStats
	uncertainty UncertaintyMap

	// Delta screening state (delta.go); zero on full screens.
	session *Session // the delta's, if Session.Screen runs it: it owns idx then
	dirty   []uint64 // pooled bitset: IDs whose pairs a delta pass emits
	touched []uint64 // pooled bitset: dirty ∪ removed, for the prior merge
	// incremental: the pass filters its entries through the stamps, collects
	// dirty pairs only and merges the prior (setDelta).
	incremental bool
	dirtyIdx    []int32    // population index of each distinct dirty object present
	stamps      []uint64   // pooled bitset: the step's stamped cells, by stampBit
	stampShift  uint       // stampBit's shift: 64 − log2 of the filter's bits
	around      [27]uint64 // what a cell's key and its 26 neighbours' add to it
	track       *keyTrack  // owned by the delta's session: the rows this pass reads and writes; noTrack keeps none
	dirtyKeys   []uint64   // dirty object d's key at the window's step j, at d·boxSteps+j
	everyRow    bool       // a window lists every valid row, not its hits (boxesPay)

	// A full screen's knot-interval listing (listing.go); off without knots
	// and on delta passes.
	listing   bool            // between knot steps the build keys interval alone: on until an interval lists too much
	boxes     []lockfree.Cell // pooled, by object: its box over the current knot interval, then the join's entries
	boxWidths []int32         // pooled, widthSlots a worker: the knot build's count of its boxes by largest extent
	boxMarks  []uint64        // pooled bitset, N bits a worker: the join's marks; the first worker's, merged, hold the interval's list
	boxHist   sortHist        // the join's radix histograms, pooled: the scan's sort runs beside it
	interval  []int32         // pooled: the objects the current interval lists, ascending
	join      joinState       // listInterval's inputs to its forks

	// Cancellation and observability plumbing. done caches ctx.Done() so
	// the uncancellable (Background) path pays nothing; sink and observer
	// are nil unless the caller asked for streaming/progress. obsMu
	// serialises the Observer calls of a run; stepsDone counts completed steps.
	ctx       context.Context
	done      <-chan struct{}
	sink      Sink
	observer  Observer
	obsMu     sync.Mutex
	stepsDone int

	// Per-step inputs of the prebuilt range closures below. Building a
	// closure inside the step loop costs a heap allocation per step — at a
	// 1 s sampling step that alone dwarfs the pooled structures' savings —
	// so the loop instead publishes its step state here and reuses the same
	// two closures for every step. The worker pool's fork/join provides the
	// happens-before edge between these writes and the workers' reads.
	// buildStep and stepEntries belong to the build side (main step goroutine);
	// the scan* fields and the sort, ID and scan buffers to the scan side, on a
	// two-slot ring a separate goroutine — the job/result channels order them.
	buildStep   int
	stepEntries []lockfree.Cell // the ring slot this step's build writes
	scanStep    uint32
	scanCells   []lockfree.Cell // the current scan's cells, in key order
	scanMembers []lockfree.Cell // the sorted entries their ranges index

	buildFn, scanFn     func(w, lo, hi int)
	buildKernel         func(r *run, w, lo, hi int) // what buildFn runs (forkBuild)
	buildFork, scanFork forkJoin                    // what the two sides fork their kernels with
}

// newRun validates inputs and allocates every structure up front — the
// paper's step 1. A nil run (with nil error) signals a trivially empty
// population. A context already cancelled on entry aborts before sampling,
// with the pooled structures returned. A delta is validated here. h is the
// build kernel's knot spacing (knotStride).
func newRun(ctx context.Context, cfg Config, sats []propagation.Satellite, sps, h float64, delta *DeltaInput) (*run, error) {
	tAlloc := time.Now()
	if cfg.DurationSeconds <= 0 {
		return nil, ErrNoDuration
	}
	r := &run{cfg: cfg, pool: cfg.pool(), sats: sats, sps: sps, workers: cfg.workers(), prop: cfg.propagator(),
		uncertainty: cfg.Uncertainty, ctx: ctx, done: ctx.Done(), sink: cfg.Sink, observer: cfg.Observer}
	if delta != nil {
		r.session = delta.session
	}
	r.buildFn, r.scanFn = r.buildSide, r.scanRange
	if err := r.init(delta, h); err != nil || len(sats) < 2 {
		r.release()
		return nil, err
	}
	r.observePhase(PhaseAllocate, time.Since(tAlloc), 0)
	return r, nil
}

// init is newRun's body past the run's fields from cfg: on an error, or with
// fewer than two satellites, newRun releases what it drew.
func (r *run) init(delta *DeltaInput, h float64) error {
	sats, cfg, pl := r.sats, r.cfg, r.pool
	var apogee float64
	var err error
	if r.session != nil {
		r.idx, apogee, err = r.session.population(sats, delta.Dirty)
	} else {
		r.idx = pl.GetIDIndex(len(sats))
		err = validatePopulation(r.idx, sats)
		apogee, _ = largestApogee(sats)
	}
	if err != nil || len(sats) < 2 {
		return err
	}
	r.threshold = cfg.threshold()
	// With per-object uncertainties the grid must cover the worst pair's
	// effective threshold d + 2·u_max.
	gridThreshold := r.threshold
	if cfg.Uncertainty != nil {
		maxU, err := maxUncertainty(cfg.Uncertainty, sats)
		if err != nil {
			return err
		}
		gridThreshold += 2 * maxU
	}
	// Interpolated positions lie up to ε_max from the orbit (knotStride). The
	// pad, ≥ 2ε_max, is what positionAt keeps from a cell face and what the
	// gate adds to g; the grid is Eq. 1's.
	stride, eps, epsV := knotStride(r.prop, sats, r.sps, h)
	if stride > 1 && !cfg.ablation.noKnotPad {
		r.pad = pow2Above(2 * eps)
	}
	r.stride, r.cellSize = stride, spatial.CellSize(gridThreshold, r.sps)
	// The cube just covers the largest apogee, plus guard cells, so even
	// sub-kilometre cells stay within the key range.
	halfExtent := cfg.halfExtentKm
	if halfExtent <= 0 {
		halfExtent = spatial.RequiredHalfExtent(apogee, r.cellSize)
	}
	if r.grid, err = spatial.NewGrid(r.cellSize, halfExtent); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if r.steps = stepCount(cfg.DurationSeconds, r.sps); r.steps-1 > lockfree.MaxStep {
		return fmt.Errorf("core: %d sampling steps exceed the packed-pair step limit %d", r.steps, lockfree.MaxStep)
	}
	if delta != nil {
		if err := r.setDelta(delta); err != nil {
			return err
		}
	}
	// Candidate emission gets one private buffer per worker, for the whole run.
	r.scanBufs = make([][]uint64, r.workers)
	for w := range r.scanBufs {
		r.scanBufs[w] = pl.GetKeyBuf(0)
	}
	r.kcache = pl.GetKeplerCache(len(sats))
	if !r.incremental { // an incremental pass seeds what it solves (listUnread)
		for i := range sats {
			r.seed(i)
		}
	}
	if stride > 1 {
		r.knots = pl.GetKnots(len(sats))
	}
	r.stats.KnotStride, r.stats.PositionPadKm = stride, r.pad
	// A step has at most one entry per object, so at most that many cells.
	n := len(sats)
	r.entries = pl.GetCellBuf(n)[:n]
	r.cellBuf = pl.GetCellBuf(n)[:n]
	if !r.incremental {
		r.unread = n
		if r.listing = stride > 1; r.listing {
			r.boxes, r.boxMarks, r.interval = pl.GetCellBuf(n)[:n], pl.GetBitset(r.workers*bitsetWords(int32(n-1))), pl.GetInt32Buf(n)
			r.boxWidths = pl.GetInt32Buf(r.workers * widthSlots)[:r.workers*widthSlots]
			r.boxHist.counts = pl.GetInt32Buf(histLen)[:histLen]
		}
	}
	r.sortHist = sortHist{keyBits: 3 * r.grid.FieldBits(), counts: pl.GetInt32Buf(histLen)[:histLen]}
	r.gate = r.newGate(gridThreshold, epsV)
	return r.cancelled()
}

// seed readies object i's warm-start state. Every loop samples in step
// order, so consecutive solves of one satellite differ by the fixed
// mean-anomaly delta n·m·s_ps — the warm-start precondition. E is seeded so
// the first solve's guess E+DeltaE is the mean anomaly itself (the e → 0
// root); SolveFrom handles the rest.
func (r *run) seed(i int) {
	dm := r.sats[i].MeanMotion() * r.sps * float64(r.stride)
	r.kcache[i] = propagation.KeplerCache{E: r.sats[i].Elements.MeanAnomaly - dm, DeltaE: dm}
}

// cancelled reports the run context's error once it is done. The nil-Done
// fast path keeps uncancellable (context.Background) runs free of any
// synchronisation or allocation.
func (r *run) cancelled() error {
	if r.done == nil {
		return nil
	}
	select {
	case <-r.done:
		return r.ctx.Err()
	default:
		return nil
	}
}

// observeStep reports one finished sampling step, under obsMu like every
// Observer call of the run.
func (r *run) observeStep(step, gridEntries int) {
	if r.observer == nil {
		return
	}
	r.obsMu.Lock()
	r.stepsDone++
	r.observer.OnStep(StepInfo{
		Step:        step,
		Steps:       r.steps,
		Completed:   r.stepsDone,
		GridEntries: gridEntries,
		Candidates:  r.candidates(),
		OutOfBounds: r.oob.Load(),
	})
	r.obsMu.Unlock()
}

// observePhase reports a completed pipeline phase with the run counters
// known at that instant.
func (r *run) observePhase(p Phase, elapsed time.Duration, conjunctions int) {
	if r.observer == nil {
		return
	}
	r.obsMu.Lock()
	r.observer.OnPhase(PhaseInfo{
		Phase:             p,
		Elapsed:           elapsed,
		Candidates:        r.stats.CandidatePairs,
		FilterRejected:    r.stats.FilterRejected,
		PrefilterRejected: r.stats.PrefilterRejected,
		Refinements:       r.stats.Refinements,
		RefineBatches:     r.stats.RefineBatches,
		Conjunctions:      conjunctions,
	})
	r.obsMu.Unlock()
}

// release returns the run's pooled structures. The frame defers it as
// soon as newRun succeeds, so every exit path — including sampling and
// refinement errors — restores pool balance. The Result is built from
// independently allocated memory, so releasing before Screen returns is
// safe; the run itself must not be used afterwards.
func (r *run) release() {
	r.pool.PutCellBuf(r.entries)
	r.pool.PutCellBuf(r.cellBuf)
	r.pool.PutCellBuf(r.boxes)
	r.pool.PutBitset(r.boxMarks)
	r.pool.PutInt32Buf(r.sortHist.counts)
	r.pool.PutInt32Buf(r.boxHist.counts)
	r.pool.PutInt32Buf(r.interval)
	r.pool.PutInt32Buf(r.boxWidths)
	r.pool.PutGateRows(r.gate.rows)
	r.pool.PutMotionRows(r.motion.rows)
	r.pool.PutKeyBuf(r.keys)
	if r.session == nil {
		r.pool.PutIDIndex(r.idx)
	}
	for w := range r.scanBufs {
		r.pool.PutKeyBuf(r.scanBufs[w])
	}
	r.pool.PutKeplerCache(r.kcache)
	r.pool.PutKnots(r.knots)
	r.pool.PutBitset(r.dirty)
	r.pool.PutBitset(r.touched)
	r.pool.PutBitset(r.stamps)
	r.keys, r.idx = nil, nil
	r.entries, r.cellBuf, r.boxes, r.scanBufs, r.kcache, r.knots, r.gate.rows, r.motion.rows = nil, nil, nil, nil, nil, nil, nil, nil
	r.dirty, r.touched, r.stamps, r.boxMarks = nil, nil, nil, nil
	r.sortHist.counts, r.boxHist.counts, r.interval, r.boxWidths = nil, nil, nil, nil
}

// candidates is the number of keys emitted so far. It reads the per-worker
// buffers, so only call it with no scan in flight.
func (r *run) candidates() int {
	n := 0
	for _, buf := range r.scanBufs {
		n += len(buf)
	}
	return n
}

// collectPairs is the conjunction set of §IV-A3 as a list (DESIGN.md §7): the
// per-worker buffers concatenated into one pooled buffer owned (and later
// released) by the run and sorted into (A, B, Step) order — the candidates of
// one pair are one run of the list and the refinements of one satellite sit
// adjacent. Every sweep emits a (pair, step) once. An incremental pass keeps
// only the pairs with a dirty member. The span is candidate generation, so
// Detection's.
func (r *run) collectPairs() {
	tCD := time.Now()
	keys := r.pool.GetKeyBuf(r.candidates())
	for _, buf := range r.scanBufs {
		if !r.incremental {
			keys = append(keys, buf...)
			continue
		}
		for _, k := range buf {
			if p := lockfree.UnpackPair(k); bitsetHas(r.dirty, p.A) || bitsetHas(r.dirty, p.B) {
				keys = append(keys, k)
			}
		}
	}
	sortPairsBySatellite(keys)
	r.keys = keys
	r.stats.CandidatePairs = len(r.keys)
	r.stats.MotionGated = int(r.gated.motion.Load())
	r.stats.GridCandidates = len(r.keys) + int(r.gated.radial.Load()) + r.stats.MotionGated
	r.stats.Detection += time.Since(tCD)
}

// sampleAllSteps is the grid's step 2 for every sampling step — propagate,
// key, and identify candidate pairs — and collects the candidates into
// r.keys. An incremental pass builds what its windows list through its stamp
// filter (delta.go), opens and commits its key track's rows around the loop,
// and samples nothing when nothing is dirty: no candidate is new.
func (r *run) sampleAllSteps() error {
	r.stats.Steps = r.steps
	switch {
	case r.incremental && len(r.dirtyIdx) == 0:
		r.stats.Steps = 0
	case r.incremental:
		r.stats.TrackedObjects = r.track.begin(r.dirtyIdx)
		r.listUnread()
		if err := r.sampleSteps(); err != nil {
			return err
		}
		r.track.commit()
	default:
		if err := r.sampleSteps(); err != nil {
			return err
		}
	}
	r.collectPairs()
	return nil
}

// positionAt is the position kernel every sampling step shares: object i's
// position at the step — binning needs nothing more, and the refiner
// re-propagates the few pairs whose velocity matters — and the grid cell it is
// in, ok false outside the cube. At stride m = 1 every step is a warm Kepler
// solve. At m > 1 (knotStride) every m-th step solves the knot m steps ahead,
// with its velocity, and the steps between are the knots' cubic Hermite
// interpolant, within ε_max of the orbit; one nearer a cell face than the pad
// is solved instead, so the cell is always the orbit's. Each solve is seeded
// with the previous one's E advanced by n·m·s_ps for the first two (the seed
// below the first is synthetic) and by the advance last observed from then
// on, which keeps the guess inside the solver's one-sincos acceptance even at
// coarse steps. Full and delta passes call this once per object per step, in
// step order, and so see bit-identical cells. J2 and numeric solve cold and
// hand the guess back.
func (r *run) positionAt(i, step int) (pos vec3.V, c spatial.Coord, ok bool) {
	s, kc, t := &r.sats[i], &r.kcache[i], float64(step)*r.sps
	switch j := step & (r.stride - 1); {
	case r.stride == 1:
		prev := kc.E
		pos, kc.E = r.prop.PositionWarm(s, t, prev+kc.DeltaE)
		if step > 0 {
			kc.DeltaE = mathx.WrapPi(kc.E - prev)
		}
	case step == 0:
		p0, w0 := r.knotAt(i, 0)
		p1, w1 := r.knotAt(i, r.stride)
		r.knots[i].Start(p0, w0, p1, w1)
		pos = s.FromPerifocal(p0)
	case j == 0:
		r.knots[i].Next(r.knotAt(i, step+r.stride))
		pos = s.FromPerifocal(r.knots[i].P0)
	default:
		u := float64(j) / float64(r.stride) // exact: m is a power of two
		pos = s.FromPerifocal(r.knots[i].At(u))
		var near bool
		if c, ok, near = r.grid.CoordNear(pos, r.pad); !near {
			return pos, c, ok
		}
		// A cell face within the pad: solve, from the E the knots bracket.
		pos, _ = r.prop.PositionWarm(s, t, kc.E-(1-u)*kc.DeltaE)
	}
	c, ok = r.grid.CoordOf(pos)
	return pos, c, ok
}

// knotAt solves object i's knot at step: its perifocal position p and its
// velocity times the knot spacing h = m·s_ps, the interpolant's tangent.
func (r *run) knotAt(i, step int) (p, w [2]float64) {
	kc := &r.kcache[i]
	prev := kc.E
	var v [2]float64
	p, v, kc.E = propagation.TwoBody{}.PerifocalWarm(&r.sats[i], float64(step)*r.sps, prev+kc.DeltaE)
	if step > 0 {
		kc.DeltaE = mathx.WrapPi(kc.E - prev)
	}
	h := float64(r.stride) * r.sps
	return p, [2]float64{h * v[0], h * v[1]}
}

// knotSeconds is h, the most time between the build kernel's Kepler solves.
// Paired runs chose it (EXPERIMENTS.md).
const knotSeconds = 16.0

// knotStride is a run's knot plan: the stride m, the largest power of two
// with m·s_ps ≤ h (so a step's phase is a mask and its u exact), and the
// largest bounds ε_i and ε_v,i of the population's interpolants and their
// tangents over m·s_ps seconds. m = 1, every step solved, unless knotBound
// bounds every object under prop.
func knotStride(prop propagation.Propagator, sats []propagation.Satellite, sps, h float64) (m int, eps, epsV float64) {
	n := int(h / sps)
	if n < 2 {
		return 1, 0, 0
	}
	m = 1 << (bits.Len(uint(n)) - 1)
	for i := range sats {
		e, ev, ok := knotBound(prop, &sats[i], float64(m)*sps)
		if !ok {
			return 1, 0, 0
		}
		eps, epsV = max(eps, e), max(epsV, ev)
	}
	return m, eps, epsV
}

// pow2Above is the power of two in (x, 2x], x > 0. A pad rounded so stays put,
// and a session's key track with it, when a delta moves ε_max a little.
func pow2Above(x float64) float64 {
	_, exp := math.Frexp(x)
	return math.Ldexp(1, exp)
}

// buildRange is the build kernel of a sampling step, of full screens and
// delta passes alike: places [lo, hi) of the step's list past the dirty
// objects (every object at a full listing, object i at place i) key their
// object — solved by positionAt below r.unread, read from its track row above
// — and store {cell key, i, float32 bits of |r|, 0 if read} in the same place
// of the step's entries, no other chunk's, so plain stores. A key off the
// cube is lockfree.EmptySlot, which the scan's sort drops, and counts out of
// bounds; a delta pass also empties a key its stamp filter does not hold. At a
// knot step a listing screen also writes each object's box over the new knot
// interval (knotBox) and counts it by width into worker w's row, and past the
// first it empties the key of each object the interval it closes did not list:
// the knot is that interval's P1, inside its box, so a candidate there has
// both objects listed.
func (r *run) buildRange(w, lo, hi int) {
	oob, first, step := 0, len(r.dirtyIdx), r.buildStep
	knot := r.listing && step&(r.stride-1) == 0
	for j := first + lo; j < first+hi; j++ {
		i, key, radius := j, uint64(0), float32(0)
		if r.listed != nil {
			i = int(r.listed[j])
		}
		if j < r.unread {
			key, radius = r.solveKey(i, j, step, &oob)
			if knot {
				r.boxes[i] = r.knotBox(i)
				r.boxWidths[w*widthSlots+int(boxWidth(r.boxes[i]))]++
				if step > 0 && !bitsetHas(r.boxMarks, int32(i)) {
					key = lockfree.EmptySlot
				}
			}
		} else {
			key = r.track.advance(i, uint32(step))
		}
		if r.incremental && key != lockfree.EmptySlot && !bitsetHas(r.stamps, r.stampBit(key)) {
			key = lockfree.EmptySlot
		}
		r.stepEntries[j] = lockfree.Cell{Key: key, Lo: int32(i), Hi: int32(math.Float32bits(radius))}
	}
	if oob > 0 {
		r.oob.Add(uint64(oob))
	}
}

// buildEntries fills entries for one step, the part it returns: §IV-A2's build,
// the grouping by cell left to the scan's sort. A full screen solves every
// object at a knot step and between them what the interval lists, which the
// step after a knot step joins (PhaseStats.Join); a delta pass's is
// buildDelta.
func (r *run) buildEntries(step int, entries []lockfree.Cell) ([]lockfree.Cell, error) {
	r.buildStep, r.stepEntries = step, entries
	if r.incremental {
		return r.buildDelta()
	}
	r.listed = nil
	j := step & (r.stride - 1)
	switch {
	case r.listing && j == 0:
		clear(r.boxWidths)
	case r.listing && j == 1:
		tJoin := time.Now()
		err := r.listInterval(entries)
		r.stats.Join += time.Since(tJoin)
		if err != nil {
			return nil, err
		}
	}
	if r.listing && j != 0 {
		r.listed = r.interval
	}
	n := len(r.sats)
	if r.listed != nil {
		n = len(r.listed)
	}
	r.stats.VisitedObjectSteps += n
	return entries[:n], r.forkBuild((*run).buildRange, n)
}

// forkBuild forks kernel over [0, n) on the build side. Each fork goes through
// buildFn, bound once per run: a closure per fork would allocate.
func (r *run) forkBuild(kernel func(r *run, w, lo, hi int), n int) error {
	r.buildKernel = kernel
	return r.buildFork.do(r.ctx, r.workers, forkGrain, n, r.buildFn)
}

// buildSide runs the build side's kernel of the fork on [lo, hi).
func (r *run) buildSide(w, lo, hi int) { r.buildKernel(r, w, lo, hi) }

// scanRange sweeps sorted cells [lo, hi) of the published step for candidate
// pairs, appending the packed keys of those the gate keeps to worker w's
// private buffer and counting the rest.
func (r *run) scanRange(w, lo, hi int) {
	r.scanBufs[w] = sweepCells(r.scanCells, r.scanMembers, r.gate, lo, hi, r.scanStep, r.grid.FieldBits(), r.scanBufs[w], &r.gated)
}

// refineCandidates runs the parallel PCA/TCA phase over the candidate list
// (refine.go, DESIGN.md §2.6). A chunk of the list refines the pairs whose
// first candidate lies in it, reading past its end to finish the last one, so
// every pair is refined once, by one worker, however the list is split. Each
// worker keeps its refiner for the phase. Records stream to the run's sink
// (if any) as each chunk completes, under the same mutex that merges them
// into the result — the Sink contract's serialisation point. Workers re-check
// the run context between pairs so large refine phases abort promptly.
func (r *run) refineCandidates(pairs []uint64) ([]Conjunction, error) {
	var mu sync.Mutex
	var all []Conjunction
	lat := newLattice(r.sps, r.cfg.DurationSeconds, r.steps)
	refiners := make([]*pairRefiner, r.workers)
	perr := r.buildFork.do(r.ctx, r.workers, forkGrain, len(pairs), func(w, lo, hi int) {
		if refiners[w] == nil {
			refiners[w] = newPairRefiner(r.prop, lat)
		}
		p := refiners[w]
		p.out = p.out[:0]
		r.refineRange(p, pairs, lo, hi)
		if len(p.out) > 0 {
			mu.Lock()
			all = append(all, p.out...)
			if r.sink != nil {
				for _, c := range p.out {
					r.sink.Emit(c)
				}
			}
			mu.Unlock()
		}
	})
	for _, p := range refiners {
		if p == nil {
			continue
		}
		n, st := p.n, &r.stats
		st.Refinements, st.PrefilterRejected, st.RefineBatches = st.Refinements+n.brent, st.PrefilterRejected+n.prefiltered, st.RefineBatches+n.batches
		st.RefineRuns, st.RefineIntervals, st.Brackets = st.RefineRuns+n.runs, st.RefineIntervals+n.intervals, st.Brackets+n.brackets
		st.Proved = [3]int{st.Proved[0] + n.proved[0], st.Proved[1] + n.proved[1], st.Proved[2] + n.proved[2]}
	}
	if perr == nil {
		perr = r.cancelled()
	}
	if perr != nil {
		return nil, perr
	}
	slices.SortFunc(all, CompareConjunctions)
	return all, nil
}

// refineRange refines with p the pairs whose first candidate lies in
// pairs[lo:hi], appending their records to p.out. Two keys of one pair differ
// in their step bits only.
func (r *run) refineRange(p *pairRefiner, pairs []uint64, lo, hi int) {
	k := lo
	for k > 0 && k < hi && pairs[k]^pairs[k-1] <= lockfree.MaxStep {
		k++
	}
	for k < hi && r.cancelled() == nil {
		e := k + 1
		for e < len(pairs) && pairs[e]^pairs[k] <= lockfree.MaxStep {
			e++
		}
		p.refinePair(r, pairs[k:e], !r.cfg.ablation.noPrefilter)
		k = e
	}
}

// finishStats seals the run counters into the result stats.
func (r *run) finishStats() PhaseStats {
	st := r.stats
	st.OutOfBounds = r.oob.Load()
	return st
}

// forkJoin splits [0, n) across workers and waits, each pinned to a distinct
// w in [0, workers) that it passes to fn, so callers can give every worker a
// private scratch buffer with no synchronisation. A fork takes one worker and
// one more per grain items; with one the calling goroutine runs it, as a
// hand-off would cost more than the work, else each worker is a goroutine.
// Ranges are chunks pulled from a shared cursor so cancellation takes effect
// between chunks: once ctx is cancelled no unstarted chunk runs, in-flight
// chunks run to completion (callers release pooled structures the moment do
// returns) and the result is ctx.Err(). The state is kept from call to call,
// one call at a time, so a call allocates nothing: a run keeps one for its
// build side and one for its scan side, which fork at once.
type forkJoin struct {
	fn           func(w, lo, hi int)
	done         <-chan struct{}
	n, chunk     int
	next, joined atomic.Int64 // the chunk cursor; the workers started
	wg           sync.WaitGroup
	worker       func() // f.work, bound by the first fork that starts a goroutine: go f.worker() allocates nothing
}

// forkGrain is the grain of every kernel a run forks, in items of any kind
// (EXPERIMENTS.md "Forks sized by their work").
const forkGrain = 256

func (f *forkJoin) do(ctx context.Context, workers, grain, n int, fn func(w, lo, hi int)) error {
	if n <= 0 {
		return nil
	}
	workers = min(workers, n, n/grain+1)
	// Oversubscribe the chunking (4 per worker) so workers re-check the
	// context at sub-range granularity and tail imbalance stays small.
	f.fn, f.done, f.n, f.chunk = fn, ctx.Done(), n, (n+4*workers-1)/(4*workers)
	if workers == 1 && f.done == nil {
		f.chunk = n // nothing to check between chunks
	}
	f.next.Store(0)
	f.joined.Store(0)
	f.wg.Add(workers)
	if workers == 1 {
		f.work()
	} else {
		if f.worker == nil {
			f.worker = f.work
		}
		for range workers {
			go f.worker()
		}
		f.wg.Wait()
	}
	select { // a nil done, Background's, is never ready
	case <-f.done:
		return ctx.Err()
	default:
		return nil
	}
}

// work is one worker of a do: chunks from the cursor until it passes n or
// the context is done.
func (f *forkJoin) work() {
	defer f.wg.Done()
	w := int(f.joined.Add(1)) - 1
	for {
		select {
		case <-f.done:
			return
		default:
		}
		lo := int(f.next.Add(int64(f.chunk))) - f.chunk
		if lo >= f.n {
			return
		}
		f.fn(w, lo, min(lo+f.chunk, f.n))
	}
}

// sortPairsBySatellite sorts packed candidate keys ascending, which is (A, B,
// Step) order: PackPair puts the three in descending bit significance. An
// in-place most-significant-digit radix, no scratch. Each level buckets on the
// eight highest bits in which its keys still differ — IDs and steps fill a
// fraction of their fields, so fixed digit positions would mostly sort zeros —
// and buckets of ≤ 32 finish by comparison. Equal keys end in one bucket whose
// keys differ in no bit: its level is the last.
func sortPairsBySatellite(keys []uint64) {
	if len(keys) <= 32 {
		slices.Sort(keys)
		return
	}
	var differ uint64
	for _, k := range keys[1:] {
		differ |= k ^ keys[0]
	}
	shift := max(bits.Len64(differ)-8, 0)
	var next, end [256]int // next unplaced index and end index of each bucket
	for _, k := range keys {
		end[k>>shift&255]++
	}
	for b, at := 0, 0; b < 256; b++ {
		next[b], end[b] = at, at+end[b]
		at = end[b]
	}
	for b := range next {
		for next[b] < end[b] {
			k := keys[next[b]]
			d := k >> shift & 255
			keys[next[b]], keys[next[d]] = keys[next[d]], k
			next[d]++
		}
	}
	for b, lo := 0, 0; shift > 0 && b < 256; b++ {
		sortPairsBySatellite(keys[lo:end[b]])
		lo = end[b]
	}
}
