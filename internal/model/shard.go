package model

// Shard sizing (§V-B applied to the sharded detectors, DESIGN.md §15): the
// same structure-size accounting that drives the parallel-step planner also
// bounds how many objects one shard may hold so that a single shard's
// screening structures fit a memory budget. The shard count then follows
// from the population size — which is what makes the sharded variants'
// memory ceiling a function of the budget, not of N.

import "fmt"

// StateBytes is one propagated state: position and velocity vectors.
const StateBytes = 48

// DefaultShardBudgetBytes is the per-shard screening-structure budget the
// sharded detectors use when the caller does not supply a shard count:
// 32 MiB keeps roughly 10⁵ objects per shard at screening spans of minutes
// to hours, so populations up to that size stay on the unsharded fast path
// and million-object catalogues split into a handful of bounded shards.
const DefaultShardBudgetBytes int64 = 32 << 20

// GridFootprintBytes models the resident-set size of one unsharded grid
// screen of n objects: the fixed allocations (satellite + Kepler data and
// the model-sized conjunction hash), the propagated state buffer, and the
// live grid plus its frozen CSR scan snapshot.
func (pl Planner) GridFootprintBytes(n int, span, threshold, sps float64) int64 {
	slotFactor := pl.GridSlotFactor
	if slotFactor <= 0 {
		slotFactor = 2
	}
	cSlots := ConjunctionSlots(pl.Model.Predict(float64(n), sps, span, threshold))
	fixed := int64(n)*(SatelliteBytes+KeplerDataBytes) + int64(cSlots)*PairSlotBytes
	perGrid := int64(float64(n)*slotFactor)*GridSlotBytes + int64(n)*EntryBytes
	return fixed + 2*perGrid + int64(n)*StateBytes
}

// ShardPlan is the outcome of PlanShards.
type ShardPlan struct {
	// Shards is the number of radial bands to screen; 1 means the
	// population fits the budget unsharded.
	Shards int
	// MaxShardSize is the largest per-shard population the budget admits —
	// the memory-ceiling driver.
	MaxShardSize int
	// PerShardBytes is the modelled screening footprint of a full shard.
	PerShardBytes int64
}

// PlanShards computes how many radial shards a screen of n objects needs so
// that each shard's grid-screening structures fit the planner's MemoryBytes
// budget (DefaultShardBudgetBytes when unset). The shard count is
// non-decreasing in n for fixed parameters: the budget fixes the maximal
// shard size m, and the plan returns ⌈n/m⌉. ErrNoMemory is returned when
// even a single object exceeds the budget.
func (pl Planner) PlanShards(n int, span, threshold, sps float64) (ShardPlan, error) {
	if n <= 0 || span <= 0 || sps <= 0 || threshold <= 0 {
		return ShardPlan{}, fmt.Errorf("model: invalid shard-plan parameters n=%d span=%g d=%g sps=%g", n, span, threshold, sps)
	}
	budget := pl.MemoryBytes
	if budget <= 0 {
		budget = DefaultShardBudgetBytes
	}
	if pl.GridFootprintBytes(1, span, threshold, sps) > budget {
		return ShardPlan{}, fmt.Errorf("%w: single-object footprint exceeds shard budget %d B", ErrNoMemory, budget)
	}
	// Largest m with footprint(m) ≤ budget; the footprint is monotone in m.
	m := n
	if pl.GridFootprintBytes(n, span, threshold, sps) > budget {
		lo, hi := 1, n // footprint(lo) ≤ budget < footprint(hi)
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if pl.GridFootprintBytes(mid, span, threshold, sps) <= budget {
				lo = mid
			} else {
				hi = mid
			}
		}
		m = lo
	}
	return ShardPlan{
		Shards:        (n + m - 1) / m,
		MaxShardSize:  m,
		PerShardBytes: pl.GridFootprintBytes(m, span, threshold, sps),
	}, nil
}

// ShardCountForBudget is the convenience form the detectors call: the
// planned shard count for n objects under the default grid model and the
// given budget (≤0 selects DefaultShardBudgetBytes). Populations that fit
// unsharded — and degenerate parameters — report 1, the unsharded
// fallback.
func ShardCountForBudget(n int, span, threshold, sps float64, budget int64) int {
	pl := Planner{MemoryBytes: budget, Model: PaperGrid}
	plan, err := pl.PlanShards(n, span, threshold, sps)
	if err != nil {
		return 1
	}
	if plan.Shards < 1 {
		return 1
	}
	return plan.Shards
}
