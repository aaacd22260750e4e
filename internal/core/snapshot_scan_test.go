package core

// The warm-started Kepler path must leave the screening output within
// refinement tolerance of the cold path, and a cold propagator's output must
// not depend on the ring's scheduling.

import (
	"context"
	"math"
	"testing"

	"repro/internal/kepler"
	"repro/internal/propagation"
)

// coldOnly hides a propagator's WarmStarter methods, so a run over it solves
// every sample cold.
type coldOnly struct{ propagation.Propagator }

func TestWarmStartMatchesColdScreen(t *testing.T) {
	// A WarmStarter propagator warm-starts the Kepler solve; the same
	// propagator behind coldOnly solves cold. Both must report the same
	// conjunctions (within refinement tolerance — the solvers agree to
	// ~1e-12 rad).
	sats := benchShellPopulation(t, 500)
	warmCfg := Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: 120, Workers: 2}
	coldCfg := warmCfg
	coldCfg.Propagator = coldOnly{propagation.TwoBody{}}

	warm, err := newGrid(warmCfg).Screen(sats)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := newGrid(coldCfg).Screen(sats)
	if err != nil {
		t.Fatal(err)
	}
	assertSameConjunctions(t, cold.Conjunctions, warm.Conjunctions)
}

func TestColdPropagatorsThroughBuildKernel(t *testing.T) {
	// Propagators without a warm solve — J2, and two-body with an explicit
	// solver — feed State into the same build kernel on a one-slot and a
	// two-slot ring. The two differ only in scheduling, so the candidates and
	// the conjunctions must come out equal, and non-empty.
	sats := denseShellPopulation(1500, 21)
	for name, prop := range map[string]propagation.Propagator{
		"j2":              propagation.J2{},
		"explicit-solver": propagation.TwoBody{Solver: kepler.Newton{}},
	} {
		t.Run(name, func(t *testing.T) {
			twoSlot := Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: 120, Workers: 2, Propagator: prop}
			oneSlot := twoSlot
			oneSlot.ablation.oneSlotRing = true

			want, err := newGrid(oneSlot).Screen(sats)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Conjunctions) == 0 {
				t.Fatal("no conjunctions: the comparison would be vacuous")
			}
			got, err := newGrid(twoSlot).Screen(sats)
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats.CandidatePairs != want.Stats.CandidatePairs {
				t.Errorf("two-slot ring: %d candidates, one-slot ring %d", got.Stats.CandidatePairs, want.Stats.CandidatePairs)
			}
			assertConjunctionsEqual(t, "two-slot ring", got.Conjunctions, want.Conjunctions)
		})
	}
}

func TestWarmStartRespectsExplicitSolver(t *testing.T) {
	// An explicitly configured solver must reach every solve even on the
	// warm-capable path: a deliberately coarse solver has to
	// change the sampled positions relative to the default.
	sats := benchShellPopulation(t, 2)
	cfg := Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: 5, Workers: 1}

	rDefault, err := newRun(context.Background(), cfg, sats, 1, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rDefault.release()
	if rDefault.warm == nil {
		t.Fatal("default two-body run did not take the warm path")
	}

	coarse := cfg
	coarse.Propagator = propagation.TwoBody{Solver: coarseSolver{}}
	rCoarse, err := newRun(context.Background(), coarse, sats, 1, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rCoarse.release()
	// The warm path stays available (PositionWarm handles the explicit
	// solver internally), so verify by outcome: take the build kernel's
	// position both ways and demand the coarse solver visibly moved it.
	if d := rDefault.positionAt(0, 100).Dist(rCoarse.positionAt(0, 100)); d < 1e-6 {
		t.Fatalf("coarse explicit solver produced the default position (Δ=%v km) — it was bypassed", d)
	}
}

// coarseSolver is an intentionally bad Kepler solver: one fixed-point sweep.
type coarseSolver struct{}

func (coarseSolver) Name() string { return "coarse" }
func (coarseSolver) Solve(m, e float64) float64 {
	return m + e*math.Sin(m) // first-order only: ~e² radians of error
}

// assertSameConjunctions compares two conjunction lists pairwise with the
// differential battery's tolerances (same TCA within a sampling step, PCA
// within metres).
func assertSameConjunctions(t *testing.T, want, got []Conjunction) {
	t.Helper()
	type pk struct{ a, b int32 }
	index := map[pk]Conjunction{}
	for _, c := range want {
		index[pk{c.A, c.B}] = c
	}
	if len(want) != len(got) {
		t.Fatalf("conjunction counts differ: want %d, got %d", len(want), len(got))
	}
	for _, c := range got {
		w, ok := index[pk{c.A, c.B}]
		if !ok {
			t.Fatalf("unexpected conjunction (%d, %d)", c.A, c.B)
		}
		if math.Abs(c.TCA-w.TCA) > 1.5 {
			t.Errorf("pair (%d, %d): TCA %v vs %v", c.A, c.B, c.TCA, w.TCA)
		}
		if math.Abs(c.PCA-w.PCA) > 1e-3 {
			t.Errorf("pair (%d, %d): PCA %v vs %v", c.A, c.B, c.PCA, w.PCA)
		}
	}
}
