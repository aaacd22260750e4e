package model

import (
	"errors"
	"math"
	"testing"
)

// shardObservations are measured grid-detector conjunction counts on the
// deterministic 131072-object catalogue of the shard smoke test
// (internal/core, smokePopulation seed 99), screened at d = 5 km over a
// 300 s span at 1 s sampling with prefix populations. They are checked in so
// the fit is pinned against real pipeline output, not synthetic data.
var shardObservations = []Observation{
	{N: 8192, S: 1, T: 300, D: 5, Count: 57},
	{N: 16384, S: 1, T: 300, D: 5, Count: 247},
	{N: 32768, S: 1, T: 300, D: 5, Count: 1025},
	{N: 65536, S: 1, T: 300, D: 5, Count: 3823},
	{N: 131072, S: 1, T: 300, D: 5, Count: 15637},
}

// TestFitReproducesShardObservations pins the Extra-P substitution on the
// checked-in measurements: the n-only power-law fit must recover the paper's
// quadratic growth and reproduce every observation within 60% — the
// tolerance §V-B needs for a sizing model, where only the order of magnitude
// drives the allocation.
func TestFitReproducesShardObservations(t *testing.T) {
	m, err := FitNOnly(shardObservations)
	if err != nil {
		t.Fatal(err)
	}
	if m.N < 1.8 || m.N > 2.2 {
		t.Errorf("fitted n-exponent = %.3f, want ≈2 (paper's quadratic growth)", m.N)
	}
	for _, o := range shardObservations {
		pred := m.Predict(o.N, o.S, o.T, o.D)
		if ratio := pred / o.Count; ratio < 1/1.6 || ratio > 1.6 {
			t.Errorf("n=%.0f: fit predicts %.0f conjunctions, observed %.0f (ratio %.2f)", o.N, pred, o.Count, ratio)
		}
	}

	// The fitted model must remain usable as a sizing driver.
	pl := Planner{Model: m}
	plan, err := pl.PlanShards(1<<20, 300, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Shards < 2 {
		t.Errorf("fitted model plans %d shards for 2^20 objects, want ≥2", plan.Shards)
	}
}

// TestPlanShardsMonotoneInN pins the sizing invariant the sharded detector
// relies on: for fixed screening parameters the planned shard count never
// decreases as the population grows, and the plan always covers n.
func TestPlanShardsMonotoneInN(t *testing.T) {
	pl := Planner{Model: PaperGrid}
	prev := 0
	for n := 1024; n <= 1<<21; n *= 2 {
		plan, err := pl.PlanShards(n, 60, 2, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if plan.Shards < prev {
			t.Fatalf("n=%d: shard count dropped %d → %d; not monotone", n, prev, plan.Shards)
		}
		if plan.Shards*plan.MaxShardSize < n {
			t.Fatalf("n=%d: %d shards × %d objects cannot cover the population", n, plan.Shards, plan.MaxShardSize)
		}
		if got := ShardCountForBudget(n, 60, 2, 1, 0); got != plan.Shards {
			t.Fatalf("n=%d: ShardCountForBudget = %d, PlanShards = %d", n, got, plan.Shards)
		}
		prev = plan.Shards
	}
	if prev < 2 {
		t.Fatalf("2^21 objects planned %d shards; default budget never shards", prev)
	}
}

// TestPlanShardsBudgetCeiling checks the plan is tight against its budget:
// the modelled per-shard footprint fits, and no larger shard would.
func TestPlanShardsBudgetCeiling(t *testing.T) {
	pl := Planner{Model: PaperGrid}
	plan, err := pl.PlanShards(1<<20, 60, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.PerShardBytes > DefaultShardBudgetBytes {
		t.Errorf("per-shard footprint %d B exceeds the %d B budget", plan.PerShardBytes, DefaultShardBudgetBytes)
	}
	if over := pl.GridFootprintBytes(plan.MaxShardSize+1, 60, 2, 1); over <= DefaultShardBudgetBytes {
		t.Errorf("MaxShardSize %d is not maximal: one more object still fits (%d B)", plan.MaxShardSize, over)
	}
}

// TestPlanShardsDegenerate covers the fall-back contract: populations below
// one shard, and every invalid input, must report a single shard so the
// detector screens unsharded rather than failing.
func TestPlanShardsDegenerate(t *testing.T) {
	pl := Planner{Model: PaperGrid}
	plan, err := pl.PlanShards(4096, 60, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Shards != 1 {
		t.Errorf("4096 objects planned %d shards, want 1 (fits one budget)", plan.Shards)
	}
	if plan.MaxShardSize < 4096 {
		t.Errorf("MaxShardSize = %d < population 4096", plan.MaxShardSize)
	}

	for name, args := range map[string][4]float64{
		"zero-n":         {0, 60, 2, 1},
		"zero-span":      {4096, 0, 2, 1},
		"zero-threshold": {4096, 60, 0, 1},
		"zero-sps":       {4096, 60, 2, 0},
	} {
		if _, err := pl.PlanShards(int(args[0]), args[1], args[2], args[3]); err == nil {
			t.Errorf("%s: PlanShards accepted invalid parameters", name)
		}
		if got := ShardCountForBudget(int(args[0]), args[1], args[2], args[3], 0); got != 1 {
			t.Errorf("%s: ShardCountForBudget = %d, want 1 (unsharded fallback)", name, got)
		}
	}
}

// TestPlanShardsNoMemory pins the impossible-budget error path.
func TestPlanShardsNoMemory(t *testing.T) {
	pl := Planner{Model: PaperGrid, MemoryBytes: 100}
	if _, err := pl.PlanShards(4096, 60, 2, 1); !errors.Is(err, ErrNoMemory) {
		t.Errorf("PlanShards with a 100 B budget: err = %v, want ErrNoMemory", err)
	}
	if got := ShardCountForBudget(4096, 60, 2, 1, 100); got != 1 {
		t.Errorf("ShardCountForBudget with a 100 B budget = %d, want 1", got)
	}
}

// TestGridFootprintMonotone: the binary search in PlanShards assumes the
// footprint model never shrinks as objects are added.
func TestGridFootprintMonotone(t *testing.T) {
	pl := Planner{Model: PaperGrid}
	prev := int64(0)
	for n := 1; n <= 1<<21; n *= 2 {
		fp := pl.GridFootprintBytes(n, 60, 2, 1)
		if fp <= prev {
			t.Fatalf("n=%d: footprint %d ≤ footprint at n/2 (%d); not monotone", n, fp, prev)
		}
		prev = fp
	}
	if math.MaxInt64/2 < prev {
		t.Fatalf("footprint overflow at 2^21 objects")
	}
}
