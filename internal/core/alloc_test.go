package core

// The allocation-budget gate of the pooling layer: a steady-state screening
// window must stay within a checked-in allocation ceiling, and every Screen
// exit — success or error, any variant — must hand all pooled
// structures back. CI runs this file like any other test, so a regression
// that re-introduces per-step or per-run churn fails the build, not just a
// benchmark graph.

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/mathx"
	"repro/internal/pool"
	"repro/internal/population"
	"repro/internal/propagation"
)

// steadyStateAllocBudget caps allocations per steady-state window — the
// workload of BenchmarkSteadyStateScreen (1,000 satellites, 121 steps,
// single worker, warm pool). Measured: 754 allocs/op before pooling,
// 13 after. The ceiling leaves headroom for toolchain noise while still
// failing if any per-step cost (one closure or scratch per step ≈ +121)
// sneaks back in.
const steadyStateAllocBudget = 40

func TestSteadyStateAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	sats := benchShellPopulation(t, 1000)
	cfg := steadyStateConfig()
	cfg.Pool = pool.New() // isolate from other tests sharing pool.Default
	det := newGrid(cfg)
	if _, err := det.Screen(sats); err != nil { // warm the pool
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(3, func() {
		if _, err := det.Screen(sats); err != nil {
			t.Fatal(err)
		}
	})
	if avg > steadyStateAllocBudget {
		t.Errorf("steady-state window averaged %.0f allocs, budget %d — pooling regressed", avg, steadyStateAllocBudget)
	}
}

// deltaPassAllocBudget caps allocations per delta pass — the workload of
// BenchmarkSessionDeltaPass at 8k (a primed hybrid session, 16 dirty
// objects, 600 s, two workers, warm pool). Measured: 729 allocs/pass while
// every fork of a parallel range built its closure, WaitGroup and cursor, the
// window listing grew its boxes and hits afresh and each run made its sort
// histograms; 65 with the fork state run-owned and the scratch kept; 44 once
// the hybrid filter's decisions held their node schedules in place instead
// of a slice each (46) and the scan swept its sorted entries instead of
// copying their IDs and radii out. Most of what is left is once per pass: the
// run, its ID and dirty lists, the hybrid filter's and refinement's forks.
// The ceiling keeps the headroom it had over 65: one allocation per step (67)
// or per fork (about 140) coming back fails it.
const deltaPassAllocBudget = 80

func TestDeltaPassAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	ctx := context.Background()
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sats := population.MustGenerate(population.Config{N: 8000, Seed: 1})
	sess, err := NewSession(VariantHybrid, Config{DurationSeconds: 600, Workers: 2, Pool: pool.New()})
	if err != nil {
		t.Fatal(err)
	}
	// The deltas are drawn before the measurement: each is a list of updates.
	const passes = 8
	nudger := &deltaNudger{sats: slices.Clone(sats), rng: mathx.NewSplitMix64(7)}
	type update struct {
		at  int
		sat propagation.Satellite
	}
	var dirty [passes][]int32
	var updates [passes][]update
	for p := range passes {
		dirty[p] = nudger.next(16)
		for _, id := range dirty[p] {
			at := slices.IndexFunc(nudger.sats, func(s propagation.Satellite) bool { return s.ID == id })
			updates[p] = append(updates[p], update{at, nudger.sats[at]})
		}
	}
	pass := func(p int) {
		for _, u := range updates[p] {
			sats[u.at] = u.sat
		}
		if _, err := sess.Screen(ctx, sats, Pass{Epoch: epoch, Dirty: dirty[p], Covered: true}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Screen(ctx, sats, Pass{Epoch: epoch}); err != nil {
		t.Fatal(err)
	}
	pass(0) // opens the track
	pass(1) // reads it, and warms the pool and the scratch
	next := 2
	avg := testing.AllocsPerRun(passes-3, func() {
		pass(next)
		next++
	})
	if avg > deltaPassAllocBudget {
		t.Errorf("a delta pass averaged %.0f allocs, budget %d — per-step or per-fork allocation is back", avg, deltaPassAllocBudget)
	}
	t.Logf("%.0f allocs per delta pass", avg)
}

// screenFn runs one detector flavour against a dedicated pool.
type screenFn func(p *pool.Pool, sats []propagation.Satellite) (*Result, error)

func poolVariants() map[string]screenFn {
	return map[string]screenFn{
		"grid": func(p *pool.Pool, sats []propagation.Satellite) (*Result, error) {
			return newGrid(Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: 300, Workers: 2, Pool: p}).Screen(sats)
		},
		"hybrid": func(p *pool.Pool, sats []propagation.Satellite) (*Result, error) {
			return newHybrid(Config{ThresholdKm: 2, DurationSeconds: 300, Workers: 2, Pool: p}).Screen(sats)
		},
	}
}

// TestScreenRestoresPoolBalance: after any successful run, everything a run
// got from its pool must be back (Outstanding == 0), and a second run on the
// warm pool must actually reuse (Hits > 0) — otherwise the pool is dead
// weight.
func TestScreenRestoresPoolBalance(t *testing.T) {
	sats := engineeredPopulation(t)
	for name, screen := range poolVariants() {
		t.Run(name, func(t *testing.T) {
			p := pool.New()
			if _, err := screen(p, sats); err != nil {
				t.Fatal(err)
			}
			if out := p.Stats().Outstanding(); out != 0 {
				t.Fatalf("after first run: %d pooled structures not returned", out)
			}
			if _, err := screen(p, sats); err != nil {
				t.Fatal(err)
			}
			st := p.Stats()
			if st.Outstanding() != 0 {
				t.Fatalf("after second run: %d pooled structures not returned", st.Outstanding())
			}
			if st.Hits == 0 {
				t.Fatalf("second run on a warm pool reused nothing: %+v", st)
			}
		})
	}
}

// TestScreenErrorPathsRestorePoolBalance drives every validation and
// pipeline failure and checks no pooled structure leaks with the error.
func TestScreenErrorPathsRestorePoolBalance(t *testing.T) {
	good := engineeredPopulation(t)
	dup := engineeredPopulation(t)
	dup[1].ID = dup[0].ID
	bad := engineeredPopulation(t)
	bad[0].ID = -5

	cases := []struct {
		name string
		cfg  Config
		sats []propagation.Satellite
	}{
		{"zero-duration", Config{ThresholdKm: 2}, good},
		{"duplicate-ids", Config{ThresholdKm: 2, DurationSeconds: 100}, dup},
		{"id-out-of-range", Config{ThresholdKm: 2, DurationSeconds: 100}, bad},
		{"uncertainty-negative", Config{ThresholdKm: 2, DurationSeconds: 100, Uncertainty: SliceUncertainty{-1}}, good},
		{"too-many-steps", Config{ThresholdKm: 2, SecondsPerSample: 0.0001, DurationSeconds: 1e7}, good},
		{"cube-too-fine", Config{ThresholdKm: 2, DurationSeconds: 100, halfExtentKm: 1e9}, good},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, variant := range []string{"grid", "hybrid"} {
				p := pool.New()
				cfg := tc.cfg
				cfg.Pool = p
				var err error
				switch variant {
				case "grid":
					_, err = newGrid(cfg).Screen(tc.sats)
				case "hybrid":
					_, err = newHybrid(cfg).Screen(tc.sats)
				}
				if err == nil {
					t.Fatalf("%s: expected an error", variant)
				}
				if out := p.Stats().Outstanding(); out != 0 {
					t.Errorf("%s: error %q leaked %d pooled structures", variant, err, out)
				}
			}
		})
	}
}

// TestDegeneratePopulationsRestorePoolBalance: the <2-satellite early exit
// returns a nil run before the detectors install their release defer — it
// must still hand back the ID index it validated with.
func TestDegeneratePopulationsRestorePoolBalance(t *testing.T) {
	for _, n := range []int{0, 1} {
		p := pool.New()
		sats := benchShellPopulation(t, n)
		res, err := newGrid(Config{ThresholdKm: 2, DurationSeconds: 100, Pool: p}).Screen(sats)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Conjunctions) != 0 {
			t.Fatalf("n=%d: unexpected conjunctions", n)
		}
		if out := p.Stats().Outstanding(); out != 0 {
			t.Errorf("n=%d: degenerate run leaked %d pooled structures", n, out)
		}
	}
}

// TestDisabledPoolMatchesDefault: pool.Disabled() must produce identical
// results to the pooled path — reuse is an optimisation, never a semantic.
func TestDisabledPoolMatchesDefault(t *testing.T) {
	sats := engineeredPopulation(t)
	cfg := Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: 1500, Workers: 2}
	pooled, err := newGrid(cfg).Screen(sats)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pool = pool.Disabled()
	fresh, err := newGrid(cfg).Screen(sats)
	if err != nil {
		t.Fatal(err)
	}
	if len(pooled.Conjunctions) != len(fresh.Conjunctions) {
		t.Fatalf("pooled %d vs disabled %d conjunctions", len(pooled.Conjunctions), len(fresh.Conjunctions))
	}
	for i := range pooled.Conjunctions {
		if pooled.Conjunctions[i] != fresh.Conjunctions[i] {
			t.Fatalf("conjunction %d differs: %+v vs %+v", i, pooled.Conjunctions[i], fresh.Conjunctions[i])
		}
	}
}

// TestPoolReuseAcrossRunsIsDeterministic: repeated runs on one warm pool
// must keep producing byte-identical conjunction lists — stale contents in
// recycled structures must never surface.
func TestPoolReuseAcrossRunsIsDeterministic(t *testing.T) {
	sats := engineeredPopulation(t)
	p := pool.New()
	cfg := Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: 1500, Workers: 2, Pool: p}
	first, err := newGrid(cfg).Screen(sats)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Conjunctions) == 0 {
		t.Fatal("engineered population should produce conjunctions")
	}
	for i := 0; i < 4; i++ {
		again, err := newGrid(cfg).Screen(sats)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Conjunctions) != len(first.Conjunctions) {
			t.Fatalf("run %d: %d vs %d conjunctions", i, len(again.Conjunctions), len(first.Conjunctions))
		}
		for j := range again.Conjunctions {
			if again.Conjunctions[j] != first.Conjunctions[j] {
				t.Fatalf("run %d conjunction %d differs: %+v vs %+v", i, j, again.Conjunctions[j], first.Conjunctions[j])
			}
		}
	}
}
