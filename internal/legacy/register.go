package legacy

// Registry adapter: the legacy baseline as a core.Detector. Importing this
// package (a blank import suffices) makes "legacy" resolvable through
// core.Lookup, which is how the satconj facade, the CLIs and the server
// reach it — nothing above core names this package any more.

import (
	"context"

	"repro/internal/core"
	"repro/internal/propagation"
)

func init() {
	core.Register(core.VariantLegacy, core.Descriptor{
		Description: "sequential all-on-all filter-chain baseline, the paper's O(n²) reference (§II)",
		Baseline:    true,
		New:         func(cfg core.Config) core.Detector { return &detector{cfg: cfg} },
	})
}

// detector adapts the legacy screener to the core Detector contract.
type detector struct {
	cfg core.Config
}

func (d *detector) ScreenContext(ctx context.Context, sats []propagation.Satellite) (*core.Result, error) {
	res, err := New(Config{
		ThresholdKm:     d.cfg.ThresholdKm,
		DurationSeconds: d.cfg.DurationSeconds,
		Propagator:      d.cfg.Propagator,
		Filters:         d.cfg.Filters,
		Workers:         d.cfg.Workers, // 0 keeps the paper's single-threaded baseline
		Sink:            d.cfg.Sink,
		Observer:        d.cfg.Observer,
	}).ScreenContext(ctx, sats)
	if err != nil {
		return nil, err
	}
	return &core.Result{
		Variant:      core.VariantLegacy,
		Backend:      "cpu-sequential",
		Conjunctions: res.Conjunctions,
		Stats: core.PhaseStats{
			Detection:   res.Stats.Elapsed,
			Refinements: int(res.Stats.Refinements),
			FilterStats: res.Stats.FilterStats,
		},
	}, nil
}
