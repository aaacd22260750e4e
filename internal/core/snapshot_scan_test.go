package core

// The warm-started Kepler path must leave the screening output within
// refinement tolerance of the cold path, and a cold propagator's output must
// not depend on the ring's scheduling.

import (
	"math"
	"testing"

	"repro/internal/propagation"
	"repro/internal/vec3"
)

// coldOnly replaces a propagator's warm solves with State, so a run over it
// solves every sample cold.
type coldOnly struct{ propagation.Propagator }

func (p coldOnly) StateWarm(s *propagation.Satellite, t, guess float64) (pos, vel vec3.V, ecc float64) {
	pos, vel = p.State(s, t)
	return pos, vel, guess
}

func (p coldOnly) PositionWarm(s *propagation.Satellite, t, guess float64) (pos vec3.V, ecc float64) {
	pos, _ = p.State(s, t)
	return pos, guess
}

func TestWarmStartMatchesColdScreen(t *testing.T) {
	// TwoBody warm-starts the Kepler solve; the same
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
	// A propagator without a warm solve — J2 — feeds State into the same
	// build kernel on a one-slot and a two-slot ring. The two differ only in scheduling, so the candidates and
	// the conjunctions must come out equal, and non-empty.
	sats := denseShellPopulation(1500, 21)
	for name, prop := range map[string]propagation.Propagator{
		"j2": propagation.J2{},
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
