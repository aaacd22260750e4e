package model

import (
	"math"
	"strings"
	"testing"

	"repro/internal/mathx"
)

func TestPaperModels(t *testing.T) {
	// Spot-check Eq. 3 at the paper's headline configuration: n = 64,000,
	// s = 9, t = 86,400 (one day), d = 2 km.
	gotGrid := PaperGrid.Predict(64000, 9, 86400, 2)
	wantGrid := 2.32e-9 * math.Pow(64000, 2) * math.Pow(9, 4.0/3.0) * 86400 * math.Pow(2, 7.0/4.0)
	if math.Abs(gotGrid-wantGrid) > 1e-6*wantGrid {
		t.Errorf("Eq.3 predict = %v, want %v", gotGrid, wantGrid)
	}
	gotHyb := PaperHybrid.Predict(64000, 9, 86400, 2)
	wantHyb := 2.14e-9 * math.Pow(64000, 2) * math.Pow(9, 5.0/3.0) * 86400 * 2
	if math.Abs(gotHyb-wantHyb) > 1e-6*wantHyb {
		t.Errorf("Eq.4 predict = %v, want %v", gotHyb, wantHyb)
	}
}

func TestPowerLawString(t *testing.T) {
	s := PaperGrid.String()
	if !strings.Contains(s, "2.32e-09") && !strings.Contains(s, "2.32e-9") {
		t.Errorf("String = %q", s)
	}
}

func TestFitRecoversKnownModel(t *testing.T) {
	// Generate synthetic observations from a known law plus small noise and
	// verify recovery of the exponents.
	truth := PowerLaw{C: 5e-9, N: 2, S: 1.5, T: 1, D: 1.2}
	rng := mathx.NewSplitMix64(3)
	var obs []Observation
	for _, n := range []float64{1000, 4000, 16000} {
		for _, s := range []float64{1, 3, 9} {
			for _, span := range []float64{3600, 86400} {
				for _, d := range []float64{1, 2, 5} {
					c := truth.Predict(n, s, span, d) * math.Exp(0.01*rng.NormFloat64())
					obs = append(obs, Observation{N: n, S: s, T: span, D: d, Count: c})
				}
			}
		}
	}
	got, err := Fit(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.N-2) > 0.02 || math.Abs(got.S-1.5) > 0.02 || math.Abs(got.T-1) > 0.02 || math.Abs(got.D-1.2) > 0.02 {
		t.Errorf("fit = %+v, want exponents (2, 1.5, 1, 1.2)", got)
	}
	if math.Abs(math.Log(got.C/5e-9)) > 0.1 {
		t.Errorf("coefficient = %g, want ≈5e-9", got.C)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil); err == nil {
		t.Error("empty observations accepted")
	}
	// All counts zero → skipped → too few.
	obs := []Observation{{N: 1, S: 1, T: 1, D: 1, Count: 0}}
	if _, err := Fit(obs); err == nil {
		t.Error("zero-count observations accepted")
	}
	// Constant parameters → singular design matrix.
	var constant []Observation
	for i := 0; i < 10; i++ {
		constant = append(constant, Observation{N: 100, S: 1, T: 1, D: 1, Count: 5})
	}
	if _, err := Fit(constant); err == nil {
		t.Error("singular fit accepted")
	}
}

func TestFitNOnly(t *testing.T) {
	truth := PowerLaw{C: 1e-8, N: 2}
	var obs []Observation
	for _, n := range []float64{2000, 4000, 8000, 16000} {
		obs = append(obs, Observation{N: n, S: 9, T: 3600, D: 2, Count: truth.Predict(n, 1, 1, 1)})
	}
	got, err := FitNOnly(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.N-2) > 1e-6 {
		t.Errorf("exponent = %v, want 2", got.N)
	}
	if _, err := FitNOnly(nil); err == nil {
		t.Error("empty observations accepted")
	}
}

// gridObservations are measured grid-detector conjunction counts on the
// deterministic 131072-object catalogue of the memory smoke test
// (internal/core, smokePopulation seed 99), screened at d = 5 km over a
// 300 s span at 1 s sampling with prefix populations. They are checked in so
// the fit is pinned against real pipeline output, not synthetic data.
var gridObservations = []Observation{
	{N: 8192, S: 1, T: 300, D: 5, Count: 57},
	{N: 16384, S: 1, T: 300, D: 5, Count: 247},
	{N: 32768, S: 1, T: 300, D: 5, Count: 1025},
	{N: 65536, S: 1, T: 300, D: 5, Count: 3823},
	{N: 131072, S: 1, T: 300, D: 5, Count: 15637},
}

// TestFitReproducesGridObservations pins the Extra-P substitution on the
// checked-in measurements: the n-only power-law fit must recover the paper's
// quadratic growth and reproduce every observation within 60% — the
// tolerance §V-B needs for a sizing model, where only the order of magnitude
// drives the allocation.
func TestFitReproducesGridObservations(t *testing.T) {
	m, err := FitNOnly(gridObservations)
	if err != nil {
		t.Fatal(err)
	}
	if m.N < 1.8 || m.N > 2.2 {
		t.Errorf("fitted n-exponent = %.3f, want ≈2 (paper's quadratic growth)", m.N)
	}
	for _, o := range gridObservations {
		pred := m.Predict(o.N, o.S, o.T, o.D)
		if ratio := pred / o.Count; ratio < 1/1.6 || ratio > 1.6 {
			t.Errorf("n=%.0f: fit predicts %.0f conjunctions, observed %.0f (ratio %.2f)", o.N, pred, o.Count, ratio)
		}
	}
}

func TestConjunctionSlots(t *testing.T) {
	// The 10,000 floor and the 2·2 doubling of §V-B.
	if got := ConjunctionSlots(100); got != 40000 {
		t.Errorf("ConjunctionSlots(100) = %d, want 40000", got)
	}
	if got := ConjunctionSlots(50000); got != 200000 {
		t.Errorf("ConjunctionSlots(50000) = %d, want 200000", got)
	}
}

func TestPlanBasic(t *testing.T) {
	pl := Planner{MemoryBytes: 1 << 30, Model: PaperGrid}
	plan, err := pl.Plan(10000, 3600, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.O != 3600 {
		t.Errorf("O = %d, want 3600", plan.O)
	}
	if plan.P < 1 {
		t.Errorf("P = %d", plan.P)
	}
	if plan.Rounds != (plan.O+plan.P-1)/plan.P {
		t.Errorf("Rounds = %d inconsistent with O=%d P=%d", plan.Rounds, plan.O, plan.P)
	}
	// Memory identity: fixed + P grids must fit.
	if plan.FixedBytes+int64(plan.P)*plan.PerGridBytes > 1<<30 {
		t.Error("plan exceeds budget")
	}
}

func TestPlanCappedByTotalSamples(t *testing.T) {
	// Huge memory: p is capped at o.
	pl := Planner{MemoryBytes: 1 << 40, Model: PaperGrid}
	plan, err := pl.Plan(1000, 100, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.P != plan.O {
		t.Errorf("P = %d, want capped at O = %d", plan.P, plan.O)
	}
	if plan.Rounds != 1 {
		t.Errorf("Rounds = %d", plan.Rounds)
	}
}

func TestPlanOutOfMemory(t *testing.T) {
	pl := Planner{MemoryBytes: 1 << 10, Model: PaperGrid}
	if _, err := pl.Plan(1000000, 86400, 2, 1); err == nil {
		t.Error("impossible plan accepted")
	}
}

func TestPlanInvalidParams(t *testing.T) {
	pl := Planner{MemoryBytes: 1 << 30, Model: PaperGrid}
	for _, bad := range []struct {
		n            int
		span, d, sps float64
	}{
		{0, 100, 2, 1}, {10, 0, 2, 1}, {10, 100, 0, 1}, {10, 100, 2, 0},
	} {
		if _, err := pl.Plan(bad.n, bad.span, bad.d, bad.sps); err == nil {
			t.Errorf("invalid params %+v accepted", bad)
		}
	}
}

func TestAutoTuneHybridReducesSps(t *testing.T) {
	// A memory-starved planner at a large population must reduce s_ps below
	// the starting 9 s — the Fig. 10c degradation.
	pl := Planner{MemoryBytes: 8 << 30, Model: PaperHybrid}
	plan, err := pl.AutoTuneHybrid(512000, 86400, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if plan.SecondsPerSample >= 9 {
		t.Errorf("s_ps = %v, want reduced below 9", plan.SecondsPerSample)
	}
	// A comfortable budget at a small population keeps s_ps = 9.
	pl2 := Planner{MemoryBytes: 24 << 30, Model: PaperHybrid}
	plan2, err := pl2.AutoTuneHybrid(64000, 86400, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.SecondsPerSample != 9 {
		t.Errorf("s_ps = %v, want 9 at 64k/24GB", plan2.SecondsPerSample)
	}
	if plan2.P < TargetParallelism {
		t.Errorf("P = %d, want ≥ %d", plan2.P, TargetParallelism)
	}
}

func TestAutoTuneMonotoneMemory(t *testing.T) {
	// More memory must never yield a smaller parallelisation factor.
	prev := 0
	for _, mem := range []int64{4 << 30, 8 << 30, 16 << 30, 32 << 30} {
		pl := Planner{MemoryBytes: mem, Model: PaperHybrid}
		plan, err := pl.AutoTuneHybrid(256000, 86400, 2, 9)
		if err != nil {
			t.Fatalf("mem %d: %v", mem, err)
		}
		if plan.P < prev {
			t.Errorf("P decreased from %d to %d as memory grew", prev, plan.P)
		}
		prev = plan.P
	}
}
