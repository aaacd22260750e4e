package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	satconj "repro"
	"repro/internal/pool"
)

// generatePopulation makes a workload's objects from the seed alone.
func generatePopulation(spec workloadSpec, seed uint64) ([]satconj.Satellite, error) {
	if spec.Debris {
		return satconj.GenerateFragmentation(satconj.FragmentationConfig{
			Parent: debrisParent, TimeOfBreakup: -6000, N: spec.N, DeltaVKmS: 0.05, Seed: seed,
		})
	}
	return satconj.GeneratePopulation(satconj.PopulationConfig{N: spec.N, Seed: seed})
}

func screenOptions(variant satconj.Variant, workers int) satconj.Options {
	return satconj.Options{
		Variant:         variant,
		ThresholdKm:     thresholdKm,
		DurationSeconds: durationSeconds,
		Workers:         workers,
	}
}

// fingerprint hashes a conjunction set, bit for bit, in result order.
func fingerprint(conjs []satconj.Conjunction) uint64 {
	h := fnv.New64a()
	var b [28]byte
	for _, c := range conjs {
		binary.LittleEndian.PutUint32(b[0:], uint32(c.A))
		binary.LittleEndian.PutUint32(b[4:], uint32(c.B))
		binary.LittleEndian.PutUint32(b[8:], c.Step)
		binary.LittleEndian.PutUint64(b[12:], math.Float64bits(c.TCA))
		binary.LittleEndian.PutUint64(b[20:], math.Float64bits(c.PCA))
		h.Write(b[:])
	}
	return h.Sum64()
}

// screenCounts are the PhaseStats counters that must repeat exactly from
// rep to rep on one population.
type screenCounts struct {
	Steps, Candidates, FilterRejected, PrefilterRejected, Refinements, Conjunctions int
}

func countsOf(res *satconj.Result) screenCounts {
	s := res.Stats
	return screenCounts{s.Steps, s.CandidatePairs, s.FilterRejected, s.PrefilterRejected, s.Refinements, len(res.Conjunctions)}
}

// screener repeats one Screen call and checks each result against the
// first: a screen fails on an error, on a conjunction set or a counter
// that differs from the reference, and on a pooled structure not returned.
type screener struct {
	sats   []satconj.Satellite
	opts   satconj.Options
	ref    uint64
	counts screenCounts
	hasRef bool
	tally  *tally
}

// run screens once and returns the wall seconds of the call.
func (s *screener) run(opts satconj.Options) (float64, *satconj.Result) {
	t0 := time.Now()
	res, err := satconj.Screen(s.sats, opts)
	wall := time.Since(t0).Seconds()
	if err != nil {
		s.tally.fail("screen: %v", err)
		return wall, nil
	}
	fp, counts := fingerprint(res.Conjunctions), countsOf(res)
	switch {
	case !s.hasRef:
		s.ref, s.counts, s.hasRef = fp, counts, true
		s.tally.ok()
	case fp != s.ref:
		s.tally.fail("screen: conjunction set differs from the first screen's (%d conjunctions, first had %d)", len(res.Conjunctions), s.counts.Conjunctions)
	case counts != s.counts:
		s.tally.fail("screen: counters %+v differ from the first screen's %+v", counts, s.counts)
	case pool.Default.Stats().Outstanding() != 0:
		s.tally.fail("screen: %d pooled structures not returned", pool.Default.Stats().Outstanding())
	default:
		s.tally.ok()
	}
	return wall, res
}

// setupScreener generates the population and runs the warm-up screen on a
// cold pool; both are set-up.
func setupScreener(spec workloadSpec, seed uint64, t *tally) (*screener, error) {
	sats, err := generatePopulation(spec, seed)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", spec.Name, err)
	}
	s := &screener{sats: sats, opts: screenOptions(spec.Variant, screenWorkers()), tally: t}
	if _, res := s.run(s.opts); res == nil {
		return nil, fmt.Errorf("warm-up screen of %s failed", spec.Name)
	}
	return s, nil
}

// runScreenUntraced is the end-to-end run of a screening workload: timed
// Screen calls back to back until the budget is spent.
func runScreenUntraced(spec workloadSpec, seed uint64, budget runBudget, r *workloadResult) error {
	s, err := setupScreener(spec, seed, &r.tally)
	if err != nil {
		return err
	}
	setup := time.Since(processStart).Seconds()

	var walls []float64
	cpu0, deadline := cpuSeconds(), time.Now().Add(budget.timed)
	for len(walls) < budget.minScreens || time.Now().Before(deadline) {
		wall, _ := s.run(s.opts)
		walls = append(walls, wall)
	}
	cpu := cpuSeconds() - cpu0

	r.set("setup_s", single(setup))
	r.set("op_p50_ms", summarize(walls, 0.5, 1e3))
	r.set("op_p90_ms", summarize(walls, 0.9, 1e3))
	r.set("cpu_s_per_op", single(cpu/float64(len(walls))))
	return nil
}

// measureCoreLayers fills every core.*, pool.* and trace.* metric from
// screens of s's population: plain and observed screens alternate (their
// ratio is the tracing overhead), then the same screen on one worker gives
// the parallel speed-up.
func measureCoreLayers(s *screener, workload string, budget runBudget, tr *tracer, r *workloadResult) {
	var plain, overhead, stepMs []float64
	var stats []satconj.PhaseStats
	var mallocs, allocBytes []float64
	pool0 := pool.Default.Stats()
	deadline := time.Now().Add(budget.timed / 2)
	for rep := 0; rep < budget.minTracedReps || time.Now().Before(deadline); rep++ {
		observed := func() (float64, *satconj.Result) {
			obs := newScreenObserver(tr, fmt.Sprintf("%s/rep%d", workload, rep), &stepMs)
			opts := s.opts
			opts.Observer = obs
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			obs.begin()
			wall, res := s.run(opts)
			obs.finish()
			runtime.ReadMemStats(&m1)
			if res != nil {
				stats = append(stats, res.Stats)
				mallocs = append(mallocs, float64(m1.Mallocs-m0.Mallocs))
				allocBytes = append(allocBytes, float64(m1.TotalAlloc-m0.TotalAlloc))
			}
			return wall, res
		}
		// Which of the pair goes first alternates, so that whatever the
		// first screen leaves the second (heap state, a pending GC cycle)
		// does not read as overhead.
		var plainWall, wall float64
		var res *satconj.Result
		if rep%2 == 0 {
			plainWall, _ = s.run(s.opts)
			wall, res = observed()
		} else {
			wall, res = observed()
			plainWall, _ = s.run(s.opts)
		}
		plain = append(plain, plainWall)
		if res != nil {
			overhead = append(overhead, 100*(wall/plainWall-1))
		}
	}
	pool1 := pool.Default.Stats()
	if len(stats) == 0 {
		return // every traced screen failed; the tally says why
	}

	phase := func(pick func(satconj.PhaseStats) time.Duration) summary {
		xs := make([]float64, len(stats))
		for i, st := range stats {
			xs[i] = pick(st).Seconds()
		}
		return summarize(xs, 0.5, 1)
	}
	r.set("core.insertion_s", phase(func(p satconj.PhaseStats) time.Duration { return p.Insertion }))
	r.set("core.freeze_s", phase(func(p satconj.PhaseStats) time.Duration { return p.Freeze }))
	r.set("core.detection_s", phase(func(p satconj.PhaseStats) time.Duration { return p.Detection }))
	r.set("core.refine_s", phase(func(p satconj.PhaseStats) time.Duration { return p.Refine }))
	// The filter phase is a share, not seconds: the grid variant has no
	// filter, and a time that reads 0 on every run looks like a constant.
	shares := make([]float64, len(stats))
	for i, st := range stats {
		shares[i] = st.Coplanarity.Seconds() / st.Total().Seconds()
	}
	r.set("core.filter_share", summarize(shares, 0.5, 1))
	r.set("core.step_p50_ms", summarize(stepMs, 0.5, 1))
	r.set("core.step_p95_ms", summarize(stepMs, 0.95, 1))

	c := s.counts
	r.set("core.steps", single(float64(c.Steps)))
	r.set("core.candidate_pairs", single(float64(c.Candidates)))
	r.set("core.filter_rejected", single(float64(c.FilterRejected)))
	r.set("core.prefilter_rejected", single(float64(c.PrefilterRejected)))
	r.set("core.refinements", single(float64(c.Refinements)))
	r.set("core.conjunctions", single(float64(c.Conjunctions)))
	growths := make([]float64, len(stats))
	for i, st := range stats {
		growths[i] = float64(st.PairSetGrowths)
	}
	r.set("core.pairset_growths", summarize(growths, 0.5, 1))
	r.set("core.refine_useful_ratio", single(ratio(c.Conjunctions, c.Refinements)))
	r.set("core.candidate_useful_ratio", single(ratio(c.Refinements, c.Candidates)))
	r.set("core.object_steps_per_s", single(float64(len(s.sats))*float64(c.Steps)/median(plain)))
	r.set("core.allocs_per_screen", summarize(mallocs, 0.5, 1))
	r.set("core.alloc_mib_per_screen", summarize(allocBytes, 0.5, 1.0/(1<<20)))
	r.set("pool.hit_ratio", single(ratio(int(pool1.Hits-pool0.Hits), int(pool1.Gets-pool0.Gets))))
	r.set("trace.overhead_pct", summarize(overhead, 0.5, 1))

	serial := s.opts
	serial.Workers = 1
	var serialWalls []float64
	for rep := 0; rep < budget.serialReps; rep++ {
		wall, _ := s.run(serial)
		serialWalls = append(serialWalls, wall)
	}
	r.set("core.parallel_speedup", single(median(serialWalls)/median(plain)))
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// screenObserver turns Observer callbacks into spans: a root per screen,
// the sequential phases under it, the sampling steps under the sample
// phase. Freeze is reported by the program as time accumulated inside the
// sample phase, not as an interval, so it has a metric but no span.
type screenObserver struct {
	tr     *tracer
	op     string
	root   int
	sample int
	last   time.Time // end of the previous step or phase
	stepMs *[]float64
}

func newScreenObserver(tr *tracer, op string, stepMs *[]float64) *screenObserver {
	return &screenObserver{tr: tr, op: op, root: -1, sample: -1, stepMs: stepMs}
}

func (o *screenObserver) begin() {
	o.last = time.Now()
	o.root = o.tr.add("screen", o.op, -1, o.last, o.last)
}

func (o *screenObserver) finish() { o.tr.end(o.root, time.Now()) }

// OnStep implements satconj.Observer.
func (o *screenObserver) OnStep(satconj.StepInfo) {
	now := time.Now()
	if o.sample < 0 {
		o.sample = o.tr.add("sample", o.op, o.root, o.last, now)
	}
	o.tr.add("step", o.op, o.sample, o.last, now)
	*o.stepMs = append(*o.stepMs, float64(now.Sub(o.last).Nanoseconds())/1e6)
	o.last = now
}

// OnPhase implements satconj.Observer.
func (o *screenObserver) OnPhase(p satconj.PhaseInfo) {
	now := time.Now()
	switch p.Phase {
	case satconj.PhaseSample:
		o.tr.end(o.sample, now)
	case satconj.PhaseFreeze:
		return
	default:
		o.tr.add(string(p.Phase), o.op, o.root, now.Add(-p.Elapsed), now)
	}
	o.last = now
}
