// Package satconj is the public API of the conjunction-screening library —
// a Go reproduction of "Satellite Collision Detection using Spatial Data
// Structures" (Hellwig et al., IPPS 2023).
//
// The library screens large satellite populations (thousands to millions of
// objects) for close approaches below a distance threshold over a time
// window, using a uniform spatial grid: each sampling step sorts the objects
// by cell key and sweeps neighbouring cells for candidate pairs (an
// incremental pass sorts and sweeps only the objects near a changed one).
// Screening algorithms are registered with the central detector
// registry (see Variants for the live list); the built-in set is:
//
//   - VariantGrid — the paper's purely grid-based method: fine time
//     sampling, small cells, every grid candidate refined directly.
//   - VariantHybrid — the paper's hybrid method: coarse sampling, large
//     cells, classical orbital filters between the grid and the refinement.
//     Faster when memory allows; the default.
//   - VariantLegacy — the classical all-on-all filter-chain screener, the
//     O(n²) baseline the paper compares against.
//
// # Quick start
//
//	sats, _ := satconj.GeneratePopulation(satconj.PopulationConfig{N: 10000, Seed: 1})
//	res, err := satconj.Screen(sats, satconj.Options{
//		ThresholdKm:     2,
//		DurationSeconds: 3600,
//	})
//	for _, c := range res.Events(10) {
//		fmt.Printf("objects %d/%d approach to %.3f km at t=%.1fs\n", c.A, c.B, c.PCA, c.TCA)
//	}
//
// Populations come from the synthetic generator (a bivariate KDE matching
// the 2021 active-satellite catalogue), from TLE files via LoadTLE, or from
// hand-built Elements via NewSatellite.
package satconj

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/ccsds"
	"repro/internal/core"
	"repro/internal/orbit"
	"repro/internal/population"
	"repro/internal/propagation"
	"repro/internal/risk"
	"repro/internal/tle"

	// The baseline screener self-registers with the core detector registry;
	// nothing in this package names it directly.
	_ "repro/internal/legacy"
)

// Re-exported element and object types.
type (
	// Elements are classical Keplerian orbital elements (km, rad).
	Elements = orbit.Elements
	// Satellite is one screenable object with its propagation cache.
	Satellite = propagation.Satellite
	// Conjunction is one detected close approach.
	Conjunction = core.Conjunction
	// Result is a screening outcome with phase statistics.
	Result = core.Result
	// PhaseStats is the per-phase timing/counter breakdown.
	PhaseStats = core.PhaseStats
	// Variant names a screening algorithm.
	Variant = core.Variant
	// Sink receives conjunctions as refinement confirms them, while the
	// screening is still running; see core.Sink for the contract.
	Sink = core.Sink
	// SinkFunc adapts a function to the Sink interface.
	SinkFunc = core.SinkFunc
	// Observer receives in-flight step and phase progress; see
	// core.Observer for the contract.
	Observer = core.Observer
	// ObserverFuncs adapts optional callbacks to the Observer interface.
	ObserverFuncs = core.ObserverFuncs
	// StepInfo reports one completed sampling step.
	StepInfo = core.StepInfo
	// PhaseInfo reports one completed pipeline phase.
	PhaseInfo = core.PhaseInfo
	// Phase names one pipeline stage.
	Phase = core.Phase
)

// The pipeline phases, in execution order.
const (
	PhaseAllocate = core.PhaseAllocate
	PhaseSample   = core.PhaseSample
	PhaseFreeze   = core.PhaseFreeze // never reported; kept because bench/ reads it
	PhaseFilter   = core.PhaseFilter
	PhaseRefine   = core.PhaseRefine
)

// Screening variants. The names are registry keys; Variants() enumerates
// whatever is registered, including detectors added after this list was
// written.
const (
	VariantGrid   = core.VariantGrid
	VariantHybrid = core.VariantHybrid
	// VariantLegacy is the sequential all-on-all filter-chain baseline.
	VariantLegacy = core.VariantLegacy
)

// VariantDescriptor describes one registered screening variant: its name,
// one-line description, whether it accepts incremental re-screens
// (ScreenDelta), and whether it is an O(n²) baseline. See core.Descriptor.
type VariantDescriptor = core.Descriptor

// Variants enumerates every registered screening variant, sorted by name.
func Variants() []VariantDescriptor { return core.Variants() }

// VariantNames returns the registered variant names, sorted — the list CLI
// flag help and API error messages are generated from.
func VariantNames() []string { return core.VariantNames() }

// LookupVariant returns the descriptor registered under name.
func LookupVariant(name Variant) (VariantDescriptor, bool) { return core.Lookup(name) }

// Options configures Screen. Zero values select the paper's defaults
// (2 km threshold, hybrid variant, 1 s/9 s sampling, all CPUs).
type Options struct {
	// Variant selects the algorithm; default VariantHybrid.
	Variant Variant
	// ThresholdKm is the screening threshold d (default 2 km).
	ThresholdKm float64
	// DurationSeconds is the screened time span (required).
	DurationSeconds float64
	// SecondsPerSample overrides the variant's sampling step.
	SecondsPerSample float64
	// Workers bounds CPU parallelism; ≤0 uses all CPUs.
	Workers int
	// UseJ2 propagates with the secular J2 perturbation instead of pure
	// two-body motion.
	UseJ2 bool
	// Propagator overrides the force model entirely (e.g. a
	// NumericPropagator); it takes precedence over UseJ2.
	Propagator Propagator
	// Uncertainty screens each pair against d + u(a) + u(b) instead of
	// the uniform threshold (grid/hybrid only); see UniformUncertainty
	// and PerObjectUncertainty.
	Uncertainty UncertaintyMap
	// Sink, when non-nil, streams each conjunction out as refinement
	// confirms it, before Screen returns.
	Sink Sink
	// Observer, when non-nil, receives step and phase progress while the
	// screening is in flight.
	Observer Observer
}

// UncertaintyMap supplies per-object position uncertainty radii (km).
type UncertaintyMap = core.UncertaintyMap

// UniformUncertainty assigns every object the same uncertainty radius.
type UniformUncertainty = core.UniformUncertainty

// PerObjectUncertainty maps object IDs (as indices) to uncertainty radii.
type PerObjectUncertainty = core.SliceUncertainty

// Propagator advances satellites to a point in time; see TwoBodyPropagator,
// J2Propagator and NumericPropagator.
type Propagator = propagation.Propagator

// TwoBodyPropagator returns the unperturbed Kepler propagator (the default).
func TwoBodyPropagator() Propagator { return propagation.TwoBody{} }

// J2Propagator returns the secular-J2 propagator.
func J2Propagator() Propagator { return propagation.J2{} }

// Force is one acceleration model term for NumericPropagator.
type Force = propagation.Force

// Standard force-model terms for NumericPropagator.
func ForcePointMass() Force { return propagation.PointMass{} }

// ForceJ2 returns the full (non-averaged) J2 oblateness acceleration.
func ForceJ2() Force { return propagation.J2Force{} }

// ForceDrag returns a cannonball drag term with the given ballistic
// parameter Cd·A/m (m²/kg) over an exponential atmosphere.
func ForceDrag(cdAOverM float64) Force { return propagation.Drag{CdAOverM: cdAOverM} }

// NumericPropagator returns a fixed-step RK4 propagator over the given
// force model — the paper's "other propagators" extension. Substantially
// slower than the analytic propagators; intended for validation and small
// high-fidelity screenings.
func NumericPropagator(stepSeconds float64, forces ...Force) Propagator {
	return propagation.Numeric{Forces: forces, StepSeconds: stepSeconds}
}

// NewSatellite wraps a validated Elements value into a Satellite.
func NewSatellite(id int32, el Elements) (Satellite, error) {
	return propagation.NewSatellite(id, el)
}

// DeltaInput carries the state an incremental screen resumes from: the
// previous result's conjunctions plus the IDs that changed since it was
// computed. See core.DeltaInput for the exact contract.
type DeltaInput = core.DeltaInput

// Screen runs the selected screening variant over the population.
func Screen(sats []Satellite, o Options) (*Result, error) {
	return ScreenContext(context.Background(), sats, o)
}

// ScreenDelta incrementally re-screens after a catalogue delta: candidate
// pairs are generated — and refined — only when at least one member is
// dirty, and conjunctions among untouched objects are carried over from
// delta.Prior. The grid variants do it with a stamp filter (each dirty object
// stamps the 27 cells it can interact with, and only objects in a stamped
// cell reach the step's sort and sweep), so a stateless pass with k changed
// objects costs one propagation of the population per step plus O(k) stamps
// and the sort and sweep of the objects near them — a Session's pass builds
// only the objects whose window boxes meet a changed one's — and the
// refinement work scales with N·k instead of N², while the result matches a
// full Screen of the same population (the delta differential battery in
// internal/core pins this).
// A delta touching more than an eighth of the population is screened in
// full instead. Incremental variants (VariantDescriptor.Incremental) only.
func ScreenDelta(sats []Satellite, o Options, delta DeltaInput) (*Result, error) {
	return ScreenDeltaContext(context.Background(), sats, o, delta)
}

// ScreenDeltaContext is ScreenDelta with cooperative cancellation, under
// the same contract as ScreenContext.
func ScreenDeltaContext(ctx context.Context, sats []Satellite, o Options, delta DeltaInput) (*Result, error) {
	desc, err := o.lookup()
	if err != nil {
		return nil, err
	}
	if !desc.Incremental {
		return nil, fmt.Errorf("satconj: variant %q has no incremental mode", desc.Name)
	}
	return desc.New(o.coreConfig(o.propagator())).(core.DeltaDetector).ScreenDelta(ctx, sats, delta)
}

// Session chains the passes of one continuously screened catalogue: it owns
// the prior conjunctions, their epoch and the key track (the clean objects'
// cell keys and window boxes, indexed, so the next delta pass builds only the
// objects near a changed one and reads their keys instead of solving), and runs
// each Pass as a delta pass or, when the chain cannot be extended, a full
// screen. See core.Session and core.Pass.
type (
	Session = core.Session
	Pass    = core.Pass
)

// NewSession returns a session screening under o; Pass.Observer overrides
// o.Observer per pass. Incremental variants only.
func NewSession(o Options) (*Session, error) {
	desc, err := o.lookup()
	if err != nil {
		return nil, err
	}
	return core.NewSession(desc.Name, o.coreConfig(o.propagator()))
}

// ScreenContext is Screen with cooperative cancellation: when ctx is
// cancelled the selected variant unwinds promptly (within about one
// sampling step, or one pair-row for the legacy baseline), returns
// ctx.Err(), and restores pool balance. Combined with Options.Sink it is
// the streaming form of the API — conjunctions flow out while the run is
// still in flight.
func ScreenContext(ctx context.Context, sats []Satellite, o Options) (*Result, error) {
	desc, err := o.lookup()
	if err != nil {
		return nil, err
	}
	return desc.New(o.coreConfig(o.propagator())).ScreenContext(ctx, sats)
}

// lookup resolves the Options' variant through the registry (empty selects
// the hybrid default).
func (o Options) lookup() (VariantDescriptor, error) {
	name := o.Variant
	if name == "" {
		name = VariantHybrid
	}
	desc, ok := core.Lookup(name)
	if !ok {
		return VariantDescriptor{}, fmt.Errorf("satconj: unknown variant %q (registered: %s)",
			o.Variant, strings.Join(core.VariantNames(), ", "))
	}
	return desc, nil
}

// propagator resolves the Options' force model: Propagator wins, then
// UseJ2, then two-body motion.
func (o Options) propagator() propagation.Propagator {
	if o.Propagator != nil {
		return o.Propagator
	}
	if o.UseJ2 {
		return propagation.J2{}
	}
	return propagation.TwoBody{}
}

func (o Options) coreConfig(prop propagation.Propagator) core.Config {
	return core.Config{
		ThresholdKm:      o.ThresholdKm,
		SecondsPerSample: o.SecondsPerSample,
		DurationSeconds:  o.DurationSeconds,
		Workers:          o.Workers,
		Propagator:       prop,
		Uncertainty:      o.Uncertainty,
		Sink:             o.Sink,
		Observer:         o.Observer,
	}
}

// PopulationConfig configures the synthetic population generator (§V-A).
type PopulationConfig = population.Config

// GeneratePopulation draws a synthetic population: (a, e) from the
// catalogue-seeded bivariate KDE, remaining elements uniform per Table II.
func GeneratePopulation(cfg PopulationConfig) ([]Satellite, error) {
	return population.Generate(cfg)
}

// WalkerConfig configures a Walker-delta constellation shell.
type WalkerConfig = population.WalkerConfig

// GenerateWalker builds a mega-constellation shell.
func GenerateWalker(cfg WalkerConfig) ([]Satellite, error) {
	return population.Walker(cfg)
}

// FragmentationConfig configures a breakup debris cloud.
type FragmentationConfig = population.FragmentationConfig

// GenerateFragmentation spawns a debris cloud from a breakup event.
func GenerateFragmentation(cfg FragmentationConfig) ([]Satellite, error) {
	return population.Fragmentation(cfg)
}

// LoadTLE reads a TLE catalogue (two- or three-line sets) and converts it
// into satellites with IDs assigned in file order.
func LoadTLE(r io.Reader) ([]Satellite, error) {
	return loadTLE(r, tle.TLE.Elements)
}

// LoadTLEAt reads a TLE catalogue like LoadTLE but aligns every set to the
// given common epoch, advancing each object's mean anomaly across the gap
// between its own TLE epoch and the target (two-body motion). Screening
// t = 0 then corresponds to `epoch` for the whole population.
func LoadTLEAt(r io.Reader, epoch time.Time) ([]Satellite, error) {
	return loadTLE(r, func(set tle.TLE) Elements { return set.ElementsAt(epoch) })
}

// loadTLE parses a catalogue and makes a satellite of each set's elements.
func loadTLE(r io.Reader, elements func(tle.TLE) Elements) ([]Satellite, error) {
	sets, err := tle.ParseCatalog(r)
	if err != nil {
		return nil, err
	}
	sats := make([]Satellite, 0, len(sets))
	for i, set := range sets {
		s, err := propagation.NewSatellite(int32(i), elements(set))
		if err != nil {
			return nil, fmt.Errorf("satconj: TLE %d (%s): %w", i, set.Name, err)
		}
		sats = append(sats, s)
	}
	return sats, nil
}

// SaveTLE writes satellites as a three-line TLE catalogue.
func SaveTLE(w io.Writer, sats []Satellite) error {
	sets := make([]tle.TLE, len(sats))
	for i, s := range sats {
		sets[i] = tle.FromElements(int(s.ID)+1, "", s.Elements)
	}
	return tle.WriteCatalog(w, sets)
}

// WriteCDMs emits one CCSDS Conjunction Data Message per conjunction — the
// hand-off artifact to the detailed assessment process downstream of the
// screening (§III). epoch anchors the screening's t = 0; opts must be the
// options the screening ran with so the states at TCA are consistent.
func WriteCDMs(w io.Writer, conjs []Conjunction, sats []Satellite, opts Options, epoch time.Time, originator string) error {
	byID := make(map[int32]*Satellite, len(sats))
	for i := range sats {
		byID[sats[i].ID] = &sats[i]
	}
	return ccsds.WriteAll(w, conjs, func(id int32) *propagation.Satellite { return byID[id] },
		opts.propagator(), epoch, originator)
}

// RiskAssessment couples a conjunction's miss distance with its collision
// probability and decision bucket.
type RiskAssessment = risk.Assessment

// CollisionProbability computes the short-encounter collision probability
// (Foster/Akella model with circularly symmetric uncertainty) for a
// screened conjunction: the downstream assessment number operators act on.
// hardBodyKm is the combined hard-body radius of the two objects.
func CollisionProbability(c Conjunction, sigmaAKm, sigmaBKm, hardBodyKm float64) (RiskAssessment, error) {
	return risk.Assess(c.PCA, sigmaAKm, sigmaBKm, hardBodyKm)
}
