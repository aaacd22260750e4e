package core

// The detector registry: the single source of truth for which screening
// variants exist and which of them screen incrementally. Every layer above
// core — the satconj facade, the conjdetect CLI, the HTTP server, and the
// paperbench harness — resolves variants through Lookup/Variants instead of
// hand-enumerating them, so registering a new detector in its own file is
// the whole cost of adding one (the scripts/check_variant_registry.sh CI
// guard enforces that no `case Variant…` dispatch creeps back in elsewhere).
//
// Detectors in this package register themselves from init functions;
// the out-of-package detector (the legacy baseline) registers from its own
// package, which imports core already — an importer that wants it listed
// pulls it in with a blank import.

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/propagation"
)

// Names of the registered detector variants. The grid/hybrid pair is
// declared in core.go; the baseline and the AABB tree are named here so
// every layer can refer to them without importing their packages.
const (
	// VariantLegacy is the sequential all-on-all filter-chain baseline
	// (internal/legacy).
	VariantLegacy Variant = "legacy"
	// VariantAABB is the 4D AABB-tree detector (aabb.go).
	VariantAABB Variant = "aabb"
)

// Detector is the contract every registered screening variant satisfies:
// screen a population over the configured span, honouring the Config's
// cancellation, pool, sink and observer plumbing.
type Detector interface {
	ScreenContext(ctx context.Context, sats []propagation.Satellite) (*Result, error)
}

// DeltaDetector is implemented by detectors that also support incremental
// re-screening (Descriptor.Incremental); see DeltaInput for the contract.
type DeltaDetector interface {
	Detector
	ScreenDelta(ctx context.Context, sats []propagation.Satellite, delta DeltaInput) (*Result, error)
}

// Descriptor describes one registered screening variant.
type Descriptor struct {
	// Name is the registry key, as it appears in Options.Variant, the
	// -variant flag, and HTTP requests. Filled in by Register.
	Name Variant
	// Description is a one-line summary for flag help and GET /v1/variants.
	Description string
	// Incremental reports whether the detector implements DeltaDetector.
	// Register derives it from the constructed detector, overwriting
	// whatever the registration set.
	Incremental bool
	// Baseline marks the O(n²) reference screeners, so sweep harnesses can
	// cap their population sizes without naming them.
	Baseline bool
	// New constructs the detector from a Config.
	New func(Config) Detector
}

var (
	registryMu sync.RWMutex
	registry   = map[Variant]Descriptor{}
)

// Register adds a screening variant under the given name. It is intended
// for init-time self-registration and panics on an empty name, a nil
// constructor, or a duplicate registration — each of those is a programming
// error that must not survive to a release build.
func Register(name Variant, d Descriptor) {
	if name == "" {
		panic("core: Register: empty variant name")
	}
	if d.New == nil {
		panic(fmt.Sprintf("core: Register(%q): nil constructor", name))
	}
	d.Name = name
	_, d.Incremental = d.New(Config{}).(DeltaDetector)
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("core: Register(%q): variant already registered", name))
	}
	registry[name] = d
}

// Lookup returns the descriptor registered under name.
func Lookup(name Variant) (Descriptor, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	d, ok := registry[name]
	return d, ok
}

// Variants returns every registered descriptor, sorted by name so help
// strings, sweeps and test enumerations are deterministic.
func Variants() []Descriptor {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]Descriptor, 0, len(registry))
	for _, d := range registry {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// VariantNames returns the registered names, sorted — the list flag help
// and error messages are generated from.
func VariantNames() []string {
	ds := Variants()
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = string(d.Name)
	}
	return names
}
