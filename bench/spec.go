package main

import (
	satconj "repro"
	"repro/internal/orbit"
)

// The names in this file are the benchmark's contract: later issues state
// their claims as (workload, metric) pairs from these tables, and
// ../BENCHMARK.json repeats them for the pipeline
// (TestSpecMatchesBenchmarkJSON keeps the two in step).

// Screening parameters shared by every workload.
const (
	thresholdKm     = 2.0
	durationSeconds = 600.0
)

type workloadKind int

const (
	kindScreen  workloadKind = iota // op = one satconj.Screen call
	kindService                     // op = one catalogue delta, POST → visible on a socket
)

// workloadSpec fixes one workload's inputs. N never changes; only the
// number of timed ops scales with -seconds.
type workloadSpec struct {
	Name    string
	Why     string
	Kind    workloadKind
	N       int
	Variant satconj.Variant
	Debris  bool // fragmentation cloud instead of the KDE shell population
}

var workloads = []workloadSpec{
	{
		Name: "shell-grid-16k", Kind: kindScreen, N: 16000, Variant: satconj.VariantGrid,
		Why: "601 fine steps, few candidates: propagation, Kepler solves and grid insert/freeze/scan are all the work, refinement none",
	},
	{
		Name: "shell-hybrid-32k", Kind: kindScreen, N: 32000, Variant: satconj.VariantHybrid,
		Why: "67 coarse steps, 1.2M candidates: filter classification, pair-set merge and memory dominate, propagation is a third",
	},
	{
		Name: "debris-grid-1500", Kind: kindScreen, N: 1500, Variant: satconj.VariantGrid, Debris: true,
		Why: "same variant as shell-grid-16k used the opposite way: dense cells, pair-set growth, refinement about two thirds of the wall",
	},
	{
		Name: "service-hybrid-8k", Kind: kindService, N: 8000, Variant: satconj.VariantHybrid,
		Why: "the only path through ScreenDelta, catalog, store, serve and httpapi: 16-object deltas beside 200 req/s conditional reads on real sockets",
	},
}

// debrisParent is the orbit of the fragmenting object of debris-grid-1500.
var debrisParent = orbit.Elements{
	SemiMajorAxis: 7100, Eccentricity: 0.001, Inclination: 1.7,
	RAAN: 1.0, ArgPerigee: 0.5, MeanAnomaly: 0.3,
}

// Service workload traffic.
const (
	deltaObjects   = 16  // objects updated per delta
	warmupDeltas   = 10  // untimed, charged to setup_s
	minTimedDeltas = 20  // floor when -seconds is very short
	readRate       = 200 // open-loop conditional reads per second
	minScreenReps  = 2   // floor of timed Screen calls per process
)

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// scaled returns the -smoke profile of w: an eighth of the objects.
func (w workloadSpec) scaled(smoke bool) workloadSpec {
	if smoke {
		w.N /= 8
	}
	return w
}

// metricSpec names one metric. Bound is set for end-to-end metrics only:
// the share of the parent's median by which the metric may worsen. Exact
// marks per-layer counts that must repeat exactly for a fixed seed.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
	Exact  bool
}

// endToEnd are the metrics of the untraced run. Every workload reports
// every one; "op" is the workload's timed operation (see workloadKind).
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_s_per_op", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.15},
}

// perLayer are the metrics of the traced run, layer = package name.
var perLayer = []metricSpec{
	// Full screens under an Observer: the workload's own population on the
	// screening workloads, the final catalogue on the service workload.
	{Name: "core.insertion_s", Unit: "s", Better: "lower"},
	{Name: "core.freeze_s", Unit: "s", Better: "lower"},
	{Name: "core.detection_s", Unit: "s", Better: "lower"},
	{Name: "core.refine_s", Unit: "s", Better: "lower"},
	{Name: "core.filter_share", Unit: "ratio", Better: "lower"},
	{Name: "core.step_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.step_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "core.steps", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.candidate_pairs", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.filter_rejected", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.prefilter_rejected", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.refinements", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.conjunctions", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.pairset_growths", Unit: "count", Better: "lower"},
	{Name: "core.refine_useful_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.candidate_useful_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.object_steps_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.allocs_per_screen", Unit: "count", Better: "lower"},
	{Name: "core.alloc_mib_per_screen", Unit: "MiB", Better: "lower"},
	{Name: "core.parallel_speedup", Unit: "ratio", Better: "higher"},
	{Name: "pool.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},

	// Isolated probes over fixed inputs (probes.go).
	{Name: "kepler.solve_ns", Unit: "ns", Better: "lower"},
	{Name: "kepler.solve_from_ns", Unit: "ns", Better: "lower"},
	{Name: "propagation.state_warm_ns", Unit: "ns", Better: "lower"},
	{Name: "propagation.propagate_all_ns_per_object", Unit: "ns", Better: "lower"},
	{Name: "spatial.key_of_ns", Unit: "ns", Better: "lower"},
	{Name: "lockfree.grid_insert_ns", Unit: "ns", Better: "lower"},
	{Name: "lockfree.freeze_ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "lockfree.pair_insert_ns", Unit: "ns", Better: "lower"},
	{Name: "filters.classify_ns", Unit: "ns", Better: "lower"},
	{Name: "brent.minimize_ns", Unit: "ns", Better: "lower"},
	{Name: "brent.evals_per_minimize", Unit: "count", Better: "lower"},
	{Name: "catalog.apply_delta_us", Unit: "us", Better: "lower"},
	{Name: "store.append_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.snapshot_build_us", Unit: "us", Better: "lower"},
	{Name: "serve.publish_0sub_us", Unit: "us", Better: "lower"},
	{Name: "serve.publish_64sub_us", Unit: "us", Better: "lower"},
	{Name: "httpapi.read304_inproc_ns", Unit: "ns", Better: "lower"},
	{Name: "observability.scrape_us", Unit: "us", Better: "lower"},

	// The service stack on loopback: the service workload's own run, a
	// short sample of the same stack on the screening workloads.
	{Name: "httpapi.delta_post_ms", Unit: "ms", Better: "lower"},
	{Name: "httpapi.rescreen_pass_ms", Unit: "ms", Better: "lower"},
	{Name: "httpapi.poll_wake_ms", Unit: "ms", Better: "lower"},
	{Name: "httpapi.pass_insertion_ms", Unit: "ms", Better: "lower"},
	{Name: "httpapi.pass_freeze_ms", Unit: "ms", Better: "lower"},
	{Name: "httpapi.pass_detection_ms", Unit: "ms", Better: "lower"},
	{Name: "httpapi.pass_refine_ms", Unit: "ms", Better: "lower"},
	{Name: "httpapi.pass_filter_ms", Unit: "ms", Better: "lower"},
	{Name: "httpapi.read_p50_us", Unit: "us", Better: "lower"},
	{Name: "httpapi.read_p99_us", Unit: "us", Better: "lower"},
	{Name: "httpapi.read_late_p50_us", Unit: "us", Better: "lower"},
}
