// Package core implements the paper's primary contribution: conjunction
// screening of large satellite populations with a uniform spatial grid.
//
// One detector runs the four steps of §III — (1) upfront allocation, (2)
// parallel propagation, binning and candidate identification per sampling
// step, (3) an optional filter, (4) PCA/TCA determination with Brent
// minimisation — and is registered twice (frame, grid.go):
//
//   - grid — the purely grid-based variant: small cells, fine sampling,
//     every candidate pair refined directly.
//   - hybrid — the grid as a pre-filter with larger cells and coarser
//     sampling, followed by the classical orbital filter chain which both
//     rejects pairs and supplies the PCA/TCA search interval.
//
// Both screen incrementally too (delta.go, track.go).
package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/filters"
	"repro/internal/lockfree"
	"repro/internal/pool"
	"repro/internal/propagation"
)

// Variant names a detector flavour in results and reports.
type Variant string

// The two detector variants of the paper.
const (
	VariantGrid   Variant = "grid"
	VariantHybrid Variant = "hybrid"
)

// Config parameterises a screening run. The zero value of every optional
// field selects the paper's defaults.
type Config struct {
	// ThresholdKm is the screening threshold d. Default 2 km (§V).
	ThresholdKm float64
	// SecondsPerSample is the sampling step s_ps. Defaults: 1 s for the
	// grid variant (small cells), 9 s for the hybrid variant (§V-C).
	SecondsPerSample float64
	// DurationSeconds is the screened time span t (> 0 required).
	DurationSeconds float64
	// Workers is the parallelism degree; ≤0 selects GOMAXPROCS.
	Workers int
	// Propagator advances satellites; nil selects propagation.TwoBody{}.
	Propagator propagation.Propagator
	// Uncertainty, when non-nil, screens each pair against the effective
	// threshold d + u(a) + u(b) instead of the uniform d (§III: the
	// threshold should cover the position uncertainties). The grid is
	// sized for the worst pair automatically.
	Uncertainty UncertaintyMap
	// Pool supplies the recycled buffer/table/state structures of the run.
	// nil selects the process-wide pool.Default, so back-to-back runs (and
	// concurrent server requests) reuse each other's buffers;
	// pool.Disabled() opts out of all reuse. See pool's package doc for the
	// ownership rules.
	Pool *pool.Pool
	// Sink, when non-nil, receives each conjunction as refinement confirms
	// it — before the sorted Result materialises. See the Sink contract in
	// observer.go.
	Sink Sink
	// Observer, when non-nil, receives per-step and per-phase progress
	// while the run is in flight. See the Observer contract in observer.go.
	Observer Observer

	// halfExtentKm fixes the simulation cube's half-edge for this package's
	// tests (cube edges, out-of-bounds objects, fixed key layouts); 0, the
	// only value outside them, sizes it from the population's largest apogee.
	halfExtentKm float64
	// ablation holds the switches only this package's tests can set.
	ablation ablation
}

// ablation turns off one design decision at a time so the differential
// battery can show each leaves the results where they were.
type ablation struct {
	// noPrefilter sends every candidate to Brent, skipping the analytic
	// pre-refinement filter (refine.go), which only rejects pairs whose
	// separation provably stays above threshold.
	noPrefilter bool
	// oneSlotRing scans each step inline even when the run has the workers to
	// overlap the scan with the next step's build (see sampleSteps).
	oneSlotRing bool
	// noGate keeps every pair the sweep finds: no radial, no motion test (radialGate).
	noGate bool
	// noReachRule keeps node-window records however far from the step.
	noReachRule bool
	// noKnotPad bins and gates interpolated positions as if they were exact:
	// none near a cell face is solved, and the radial test adds nothing to g.
	noKnotPad bool
}

func (c Config) threshold() float64 {
	if c.ThresholdKm <= 0 {
		return filters.DefaultThreshold
	}
	return c.ThresholdKm
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

func (c Config) propagator() propagation.Propagator {
	if c.Propagator == nil {
		return propagation.TwoBody{}
	}
	return c.Propagator
}

func (c Config) pool() *pool.Pool {
	if c.Pool == nil {
		return pool.Default
	}
	return c.Pool
}

// Conjunction is one detected close approach: the pair, the sampling step
// that flagged it, and the refined time and distance of closest approach.
type Conjunction struct {
	A, B int32   // satellite IDs, A < B
	Step uint32  // sampling step that produced the candidate
	TCA  float64 // time of closest approach, seconds from epoch
	PCA  float64 // point-of-closest-approach distance, km
}

// Filter selects conjunctions by object, TCA window and PCA. A bound applies
// only when its Has flag is set, so zero and negative bounds mean what they
// say; the zero Filter matches every conjunction.
type Filter struct {
	Object    int32   // conjunctions involving this ID
	HasObject bool    // (0 is a valid ID)
	TCAMin    float64 // inclusive lower bound on TCA, seconds
	HasTCAMin bool
	TCAMax    float64 // inclusive upper bound on TCA, seconds
	HasTCAMax bool
	MaxPCAKm  float64 // inclusive upper bound on PCA, km
	HasMaxPCA bool
}

// Match reports whether c passes the filter.
func (f Filter) Match(c Conjunction) bool {
	switch {
	case f.HasObject && c.A != f.Object && c.B != f.Object:
		return false
	case f.HasTCAMin && c.TCA < f.TCAMin:
		return false
	case f.HasTCAMax && c.TCA > f.TCAMax:
		return false
	case f.HasMaxPCA && c.PCA > f.MaxPCAKm:
		return false
	}
	return true
}

// CompareConjunctions orders conjunctions by (A, B, TCA, Step), the order of
// every Result's list, as a three-way comparison for slices.SortFunc.
func CompareConjunctions(a, b Conjunction) int {
	return cmp.Or(cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B), cmp.Compare(a.TCA, b.TCA), cmp.Compare(a.Step, b.Step))
}

// PhaseStats records where the run spent its time — the §V-C1 breakdown —
// plus pipeline counters. A delta pass (delta.go) runs the same step loop, so
// its phases mean the same: Insertion is its build, stamps and stamp filter
// included, and Detection its sort, sweep and collect.
type PhaseStats struct {
	Insertion   time.Duration // propagation + one {cell key, ID} entry per object (INS)
	Freeze      time.Duration // always zero — no detector freezes anything; kept because bench/ reads it
	Detection   time.Duration // candidate generation: per step entry sort + group into cells + sweep, per run one collect of the keys (CD)
	Sort        time.Duration // the serial sort + group share of Detection
	Refine      time.Duration // PCA/TCA refinement: pre-filter + Brent (REF)
	Coplanarity time.Duration // orbital filter classification (hybrid only)

	Steps              int     // sampling steps processed (0 on a delta pass with nothing dirty)
	GridCandidates     int     // distinct (pair, step) candidates from the grid, before the gate: the paper's c′ (Eqs. 3/4)
	CandidatePairs     int     // the grid candidates the gate kept: what the filters and refinement see
	MotionGated        int     // grid candidates the gate's radial test kept and its motion test dropped
	DirtyObjects       int     // delta screens: size of the dirty set (0 on full screens)
	PriorRetained      int     // delta screens: prior conjunctions carried over unrefined
	TrackedObjects     int     // delta passes of a Session: rows of the key track valid at the start of the pass
	VisitedObjectSteps int     // object-steps the build keyed, solved or read from a row: N·steps on a trackless pass and a full screen without knots; with knots N at each knot step and the interval's listed objects between (listing.go)
	TrackBytes         int     // delta passes of a Session: size of the key track the pass read and wrote
	TrackDropped       string  // Session passes: why the key track (or the rows a failed pass opened) was dropped before this pass; empty when kept
	FilterRejected     int     // candidates dropped by the orbital filters (hybrid)
	PrefilterRejected  int     // candidates rejected analytically before any Brent evaluation
	Refinements        int     // Brent searches performed
	RefineBatches      int     // warm-refiner satellite batches (first-satellite rebinds)
	OutOfBounds        uint64  // satellite samples outside the simulation cube
	KnotStride         int     // m: the build solves Kepler every m-th step and interpolates between (1: every step solved)
	PositionPadKm      float64 // 2ε_max rounded up to a power of two: an interpolated position this near a cell face is solved instead, and the gate's radial test adds it to g (0 at m = 1)
	PairSetGrowths     int     // always zero — the candidates are a list, nothing grows; kept because bench/ reads it
	FilterStats        filters.Stats
}

// Total returns the accounted wall time of the phases. On a two-slot ring
// the detection share overlaps insertion wall time, so phase *shares* remain
// the meaningful quantity (as in §V-C1), not their sum against the wall clock.
func (p PhaseStats) Total() time.Duration {
	return p.Insertion + p.Detection + p.Refine + p.Coplanarity
}

// PhaseSecond pairs a phase name with its accumulated wall seconds — the
// publication form of PhaseStats consumed by exporters (the /metrics
// rescreen counters aggregate these across passes).
type PhaseSecond struct {
	Name    string
	Seconds float64
}

// PhaseSeconds returns the per-phase wall-time breakdown in execution
// order, under the stats' own names (insertion/detection/refine/filter —
// the §V-C1 columns, not the Observer phase enum, which folds detection
// into the sample phase).
func (p PhaseStats) PhaseSeconds() []PhaseSecond {
	return []PhaseSecond{
		{Name: "insertion", Seconds: p.Insertion.Seconds()},
		{Name: "detection", Seconds: p.Detection.Seconds()},
		{Name: "refine", Seconds: p.Refine.Seconds()},
		{Name: "filter", Seconds: p.Coplanarity.Seconds()},
	}
}

// Result is the outcome of a screening run.
type Result struct {
	Variant      Variant
	Backend      string        // "cpu", or "cpu-sequential" for the legacy baseline
	Conjunctions []Conjunction // sorted by CompareConjunctions
	Stats        PhaseStats
}

// UniquePairs returns the number of distinct satellite pairs among the
// conjunctions — the paper's "possibly colliding pairs" count, as opposed to
// the conjunction count which may include one event seen at several steps.
func (r *Result) UniquePairs() int {
	seen := make(map[uint64]struct{}, len(r.Conjunctions))
	for _, c := range r.Conjunctions {
		seen[lockfree.PackPair(c.A, c.B, 0)] = struct{}{}
	}
	return len(seen)
}

// Events merges conjunctions of the same pair whose TCAs lie within
// tolSeconds of each other, keeping the smallest PCA of each cluster: one
// entry per physical encounter. It relies on the list's order.
func (r *Result) Events(tolSeconds float64) []Conjunction {
	var out []Conjunction
	for _, c := range r.Conjunctions {
		if len(out) > 0 {
			last := &out[len(out)-1]
			if last.A == c.A && last.B == c.B && math.Abs(last.TCA-c.TCA) <= tolSeconds {
				if c.PCA < last.PCA {
					last.PCA = c.PCA
					last.TCA = c.TCA
				}
				continue
			}
		}
		out = append(out, c)
	}
	return out
}

// Errors returned by the detectors.
var (
	ErrNoDuration = errors.New("core: DurationSeconds must be positive")
	ErrTooManyIDs = errors.New("core: satellite ID exceeds the packed-pair limit")
)

// validatePopulation checks IDs and fills idx (which must be empty) with the
// lookup from satellite ID to population index. IDs must be unique and
// within the packed-pair range. The map is caller-supplied so a pooled map
// can serve run after run.
func validatePopulation(idx map[int32]int32, sats []propagation.Satellite) error {
	for i := range sats {
		id := sats[i].ID
		if id < 0 || id > lockfree.MaxID {
			return fmt.Errorf("%w: id %d (max %d)", ErrTooManyIDs, id, lockfree.MaxID)
		}
		if idx[id] = int32(i); len(idx) <= i { // one map write, no lookup: a repeat leaves the size
			prev := slices.IndexFunc(sats, func(s propagation.Satellite) bool { return s.ID == id })
			return fmt.Errorf("core: duplicate satellite ID %d (indices %d and %d)", id, prev, i)
		}
	}
	return nil
}

// largestApogee is the population's largest apogee radius, which sizes the
// simulation cube (spatial.RequiredHalfExtent), and the index of an object
// with it; 0 and −1 for no objects.
func largestApogee(sats []propagation.Satellite) (apogee float64, at int32) {
	at = -1
	for i := range sats {
		if ap := sats[i].Elements.ApogeeRadius(); ap > apogee || at < 0 {
			apogee, at = ap, int32(i)
		}
	}
	return apogee, at
}

// stepCount returns the number of samples covering [0, duration].
func stepCount(duration, sps float64) int {
	return int(math.Floor(duration/sps)) + 1
}
