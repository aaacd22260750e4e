package satconj

// One benchmark per paper table/figure (DESIGN.md §4). These are the
// laptop-scale counterparts of cmd/paperbench: small populations and short
// spans so `go test -bench=.` completes in minutes; the harness command
// reproduces the full tables. Custom metrics attach the experiment's
// headline quantity to the benchmark output.

import (
	"testing"

	"repro/internal/mathx"
	"repro/internal/model"
	"repro/internal/population"
	"repro/internal/propagation"
)

func benchPopulation(b *testing.B, n int) []Satellite {
	b.Helper()
	sats, err := GeneratePopulation(PopulationConfig{N: n, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return sats
}

func benchScreen(b *testing.B, sats []Satellite, o Options) *Result {
	b.Helper()
	var res *Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = Screen(sats, o)
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// --- Fig. 10a: small populations, all variants -------------------------

func BenchmarkFig10Small_Legacy(b *testing.B) {
	sats := benchPopulation(b, 1000)
	benchScreen(b, sats, Options{Variant: VariantLegacy, ThresholdKm: 2, DurationSeconds: 300})
}

func BenchmarkFig10Small_GridCPU(b *testing.B) {
	sats := benchPopulation(b, 1000)
	benchScreen(b, sats, Options{Variant: VariantGrid, ThresholdKm: 2, DurationSeconds: 300})
}

func BenchmarkFig10Small_HybridCPU(b *testing.B) {
	sats := benchPopulation(b, 1000)
	benchScreen(b, sats, Options{Variant: VariantHybrid, ThresholdKm: 2, DurationSeconds: 300})
}

// --- Fig. 10b: medium populations (legacy is out of its depth here) ----

func BenchmarkFig10Medium_GridCPU(b *testing.B) {
	sats := benchPopulation(b, 8000)
	benchScreen(b, sats, Options{Variant: VariantGrid, ThresholdKm: 2, DurationSeconds: 120})
}

func BenchmarkFig10Medium_HybridCPU(b *testing.B) {
	sats := benchPopulation(b, 8000)
	benchScreen(b, sats, Options{Variant: VariantHybrid, ThresholdKm: 2, DurationSeconds: 120})
}

// --- Fig. 10c: the planner-driven hybrid under memory pressure ---------

func BenchmarkFig10Large_HybridPlanned(b *testing.B) {
	sats := benchPopulation(b, 16000)
	planner := model.Planner{MemoryBytes: 1 << 30, Model: model.PaperHybrid}
	plan, err := planner.AutoTuneHybrid(len(sats), 120, 2, 9)
	if err != nil {
		b.Fatal(err)
	}
	res := benchScreen(b, sats, Options{
		Variant: VariantHybrid, ThresholdKm: 2, DurationSeconds: 120,
		SecondsPerSample: plan.SecondsPerSample,
	})
	b.ReportMetric(plan.SecondsPerSample, "s_ps")
	b.ReportMetric(float64(len(res.Conjunctions)), "conjunctions")
}

// --- §V-D accuracy: variant agreement ----------------------------------

func BenchmarkAccuracyAgreement(b *testing.B) {
	sats := benchPopulation(b, 800)
	o := Options{ThresholdKm: 10, DurationSeconds: 900}
	var missing, extra float64
	for i := 0; i < b.N; i++ {
		oLeg := o
		oLeg.Variant = VariantLegacy
		legacyRes, err := Screen(sats, oLeg)
		if err != nil {
			b.Fatal(err)
		}
		oGrid := o
		oGrid.Variant = VariantGrid
		gridRes, err := Screen(sats, oGrid)
		if err != nil {
			b.Fatal(err)
		}
		legacyPairs := map[[2]int32]bool{}
		for _, c := range legacyRes.Conjunctions {
			legacyPairs[[2]int32{c.A, c.B}] = true
		}
		gridPairs := map[[2]int32]bool{}
		for _, c := range gridRes.Conjunctions {
			gridPairs[[2]int32{c.A, c.B}] = true
		}
		missing, extra = 0, 0
		for p := range legacyPairs {
			if !gridPairs[p] {
				missing++
			}
		}
		for p := range gridPairs {
			if !legacyPairs[p] {
				extra++
			}
		}
	}
	b.ReportMetric(missing, "missing_pairs")
	b.ReportMetric(extra, "extra_pairs")
}

// --- §V-C1 phase breakdown ----------------------------------------------

func BenchmarkPhaseBreakdown_Hybrid(b *testing.B) {
	sats := benchPopulation(b, 4000)
	res := benchScreen(b, sats, Options{Variant: VariantHybrid, ThresholdKm: 10, DurationSeconds: 600})
	total := float64(res.Stats.Total())
	b.ReportMetric(100*float64(res.Stats.Detection)/total, "CD_%")
	b.ReportMetric(100*float64(res.Stats.Insertion)/total, "INS_%")
	b.ReportMetric(100*float64(res.Stats.Coplanarity)/total, "coplanar_%")
}

func BenchmarkPhaseBreakdown_Grid(b *testing.B) {
	sats := benchPopulation(b, 4000)
	res := benchScreen(b, sats, Options{Variant: VariantGrid, ThresholdKm: 10, DurationSeconds: 600})
	total := float64(res.Stats.Total())
	b.ReportMetric(100*float64(res.Stats.Detection)/total, "CD_%")
	b.ReportMetric(100*float64(res.Stats.Insertion)/total, "INS_%")
}

// --- §V-C2 thread scaling ------------------------------------------------

func BenchmarkThreadScaling_Grid1(b *testing.B) {
	sats := benchPopulation(b, 2000)
	benchScreen(b, sats, Options{Variant: VariantGrid, ThresholdKm: 2, DurationSeconds: 120, Workers: 1})
}

func BenchmarkThreadScaling_GridMax(b *testing.B) {
	sats := benchPopulation(b, 2000)
	benchScreen(b, sats, Options{Variant: VariantGrid, ThresholdKm: 2, DurationSeconds: 120, Workers: 0})
}

// --- Eqs. 3/4: model sweep + fit -----------------------------------------

func BenchmarkConjunctionModelSweep(b *testing.B) {
	var fitted model.PowerLaw
	for i := 0; i < b.N; i++ {
		var obs []model.Observation
		for _, n := range []int{400, 800, 1600} {
			sats := benchPopulation(b, n)
			for _, sps := range []float64{1, 2} {
				for _, d := range []float64{2, 6} {
					res, err := Screen(sats, Options{
						Variant: VariantGrid, ThresholdKm: d,
						DurationSeconds: 180, SecondsPerSample: sps,
					})
					if err != nil {
						b.Fatal(err)
					}
					obs = append(obs, model.Observation{
						N: float64(n), S: sps, T: 180, D: d,
						Count: float64(res.Stats.GridCandidates),
					})
				}
			}
		}
		var err error
		fitted, err = model.Fit(obs)
		if err != nil {
			// With a tiny sweep the span column is constant; fall back to
			// the n-only fit so the bench still reports the key exponent.
			fitted, err = model.FitNOnly(obs)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(fitted.N, "n_exponent")
}

// --- Fig. 9: KDE sampling -------------------------------------------------

func BenchmarkFig9KDESample(b *testing.B) {
	kde := population.DefaultKDE()
	rng := mathx.NewSplitMix64(99)
	b.ReportAllocs()
	var acc float64
	for i := 0; i < b.N; i++ {
		a, e := kde.Sample(rng)
		acc += a + e
	}
	benchSink = acc
}

// --- Table II: population generation ---------------------------------------

func BenchmarkTab2PopulationGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GeneratePopulation(PopulationConfig{N: 2000, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 2: distance-series propagation ----------------------------------

func BenchmarkFig2DistanceSeries(b *testing.B) {
	elA := Elements{SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: 0.4}
	elB := Elements{SemiMajorAxis: 7000.8, Eccentricity: 0.0005, Inclination: 1.1}
	a, err := NewSatellite(0, elA)
	if err != nil {
		b.Fatal(err)
	}
	bb, err := NewSatellite(1, elB)
	if err != nil {
		b.Fatal(err)
	}
	prop := propagation.TwoBody{}
	b.ReportAllocs()
	var acc float64
	for i := 0; i < b.N; i++ {
		t := float64(i%14000) * 1.0
		pa, _ := prop.State(&a, t)
		pb, _ := prop.State(&bb, t)
		acc += pa.Dist(pb)
	}
	benchSink = acc
}

var benchSink float64
