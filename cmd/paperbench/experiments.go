package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	satconj "repro"
	"repro/internal/model"
	"repro/internal/population"
	"repro/internal/propagation"
	"repro/internal/report"
)

// ---------------------------------------------------------------- Table I

func runTab1(ctx *benchCtx) error {
	t := report.NewTable("", "System Property", "Values")
	t.AddRow("Operating System", runtime.GOOS+"/"+runtime.GOARCH)
	t.AddRow("CPU logical cores", runtime.NumCPU())
	t.AddRow("GOMAXPROCS", runtime.GOMAXPROCS(0))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.AddRow("Go heap in use", fmt.Sprintf("%d MiB", ms.HeapInuse>>20))
	t.AddRow("Note", "the paper's GPU rows are not reproduced (DESIGN.md §7)")
	return t.WriteASCII(os.Stdout)
}

// --------------------------------------------------------------- Table II

func runTab2(*benchCtx) error {
	t := report.NewTable("", "Kepler Element", "Value Range")
	for _, row := range population.TableIIRanges() {
		t.AddRow(row.Element, row.Range)
	}
	return t.WriteASCII(os.Stdout)
}

// ----------------------------------------------------------------- Fig. 2

func runFig2(ctx *benchCtx) error {
	// Two co-shell crossing satellites engineered to meet twice inside the
	// window; print the distance series with the screening threshold and
	// the refined PCAs/TCAs marked.
	sats := meetingPairSats(900)
	span := 14000.0 // ≈2.4 orbital periods: several local minima, like Fig. 2
	prop := propagation.TwoBody{}

	fmt.Println("t [s], distance [km]   (threshold d = 2 km)")
	var fig report.Figure
	fig.XLabel, fig.YLabel = "t_s", "distance_km"
	for t := 0.0; t <= span; t += 120 {
		pa, _ := prop.State(&sats[0], t)
		pb, _ := prop.State(&sats[1], t)
		fig.Add("distance", t, pa.Dist(pb))
	}
	if ctx.csv {
		if err := fig.WriteCSV(os.Stdout); err != nil {
			return err
		}
	} else if err := fig.WriteASCII(os.Stdout); err != nil {
		return err
	}

	res, _, err := screenTimed(ctx, sats, satconj.Options{
		Variant: satconj.VariantGrid, ThresholdKm: 50, DurationSeconds: span,
	})
	if err != nil {
		return err
	}
	fmt.Println("\nLocal minima (blue dots of Fig. 2):")
	t := report.NewTable("", "TCA [s]", "PCA [km]", "below 2 km threshold")
	for _, c := range res.Events(20) {
		t.AddRow(fmt.Sprintf("%.2f", c.TCA), fmt.Sprintf("%.4f", c.PCA), c.PCA <= 2)
	}
	return t.WriteASCII(os.Stdout)
}

// meetingPairSats builds the engineered crossing pair used by fig2.
func meetingPairSats(tMeet float64) []satconj.Satellite {
	elA := satconj.Elements{SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: 0.4}
	elB := satconj.Elements{SemiMajorAxis: 7000.8, Eccentricity: 0.0005, Inclination: 1.1}
	elA.MeanAnomaly = -elA.MeanMotion() * tMeet
	elB.MeanAnomaly = -elB.MeanMotion() * tMeet
	a, err := satconj.NewSatellite(0, normalizeEl(elA))
	if err != nil {
		panic(err)
	}
	b, err := satconj.NewSatellite(1, normalizeEl(elB))
	if err != nil {
		panic(err)
	}
	return []satconj.Satellite{a, b}
}

func normalizeEl(el satconj.Elements) satconj.Elements {
	for el.MeanAnomaly < 0 {
		el.MeanAnomaly += 2 * 3.14159265358979
	}
	return el
}

// ----------------------------------------------------------------- Fig. 9

func runFig9(ctx *benchCtx) error {
	kde := population.DefaultKDE()
	grid := kde.DensityGrid(6600, 9000, 72, 0, 0.02, 24)
	if err := report.HeatMap(os.Stdout, "Bivariate density (LEO detail)", grid,
		"semi-major axis 6600→9000 km", "eccentricity 0→0.02"); err != nil {
		return err
	}
	fmt.Println()
	// Sampled verification: cluster shares from an actual draw.
	sats := population.MustGenerate(population.Config{N: 20000, Seed: ctx.seed})
	var leo, meo, geo, heo int
	for _, s := range sats {
		a, e := s.Elements.SemiMajorAxis, s.Elements.Eccentricity
		switch {
		case e > 0.5:
			heo++
		case a < 8200:
			leo++
		case a > 41000:
			geo++
		default:
			meo++
		}
	}
	t := report.NewTable("Sampled population (n=20,000)", "Band", "Objects", "Share")
	total := float64(len(sats))
	for _, r := range []struct {
		name string
		n    int
	}{{"LEO (a<8200 km)", leo}, {"MEO", meo}, {"GEO", geo}, {"HEO/GTO (e>0.5)", heo}} {
		t.AddRow(r.name, r.n, fmt.Sprintf("%.1f%%", 100*float64(r.n)/total))
	}
	return t.WriteASCII(os.Stdout)
}

// -------------------------------------------------------------- Eqs. 3/4

func runEq34(ctx *benchCtx) error {
	fmt.Println("Sweeping (n, s_ps, t, d) and fitting c' = C·n^α·s^β·t^γ·d^δ")
	fmt.Println("to the measured conjunction-hash candidate counts (log–log LSQ).")
	fmt.Println()

	sweep := func(variant satconj.Variant, spsValues []float64) ([]model.Observation, error) {
		var obs []model.Observation
		for _, n := range []int{500, 1000, 2000} {
			sats, err := satconj.GeneratePopulation(satconj.PopulationConfig{N: n, Seed: ctx.seed})
			if err != nil {
				return nil, err
			}
			for _, sps := range spsValues {
				for _, span := range []float64{300, 600} {
					for _, d := range []float64{2, 4, 8} {
						res, _, err := screenTimed(ctx, sats, satconj.Options{
							Variant: variant, ThresholdKm: d,
							DurationSeconds: span, SecondsPerSample: sps,
						})
						if err != nil {
							return nil, err
						}
						obs = append(obs, model.Observation{
							N: float64(n), S: sps, T: span, D: d,
							Count: float64(res.Stats.GridCandidates),
						})
					}
				}
			}
		}
		return obs, nil
	}

	t := report.NewTable("", "Model", "C", "n^α", "s^β", "t^γ", "d^δ")
	addModel := func(name string, m model.PowerLaw) {
		t.AddRow(name, fmt.Sprintf("%.3g", m.C), fmt.Sprintf("%.2f", m.N),
			fmt.Sprintf("%.2f", m.S), fmt.Sprintf("%.2f", m.T), fmt.Sprintf("%.2f", m.D))
	}
	addModel("paper Eq. 3 (grid)", model.PaperGrid)
	obsGrid, err := sweep(satconj.VariantGrid, []float64{1, 2, 4})
	if err != nil {
		return err
	}
	if fitted, err := model.Fit(obsGrid); err != nil {
		fmt.Fprintf(os.Stderr, "grid fit failed: %v\n", err)
	} else {
		addModel("fitted (grid)", fitted)
	}
	addModel("paper Eq. 4 (hybrid)", model.PaperHybrid)
	obsHyb, err := sweep(satconj.VariantHybrid, []float64{4.5, 9, 18})
	if err != nil {
		return err
	}
	if fitted, err := model.Fit(obsHyb); err != nil {
		fmt.Fprintf(os.Stderr, "hybrid fit failed: %v\n", err)
	} else {
		addModel("fitted (hybrid)", fitted)
	}
	if err := t.WriteASCII(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\nExpected shape: n exponent ≈ 2 (quadratic within shells, §III-B);")
	fmt.Println("positive s and d exponents (bigger cells / thresholds → more candidates).")
	return nil
}

// ----------------------------------------------------------- Fig. 10 a–c

// variantRun measures one (variant, backend) runtime.
type variantRun struct {
	name string
	run  func(sats []satconj.Satellite) (*satconj.Result, time.Duration, error)
}

// screenTimed measures one screening run's wall time. The run is
// cancellable through the shared SIGINT context. Sub-second runs are
// re-measured up to three times and the fastest kept: single-shot timings
// that small carry ±20% scheduler noise on a shared host, while longer runs
// amortise it.
func screenTimed(ctx *benchCtx, sats []satconj.Satellite, o satconj.Options) (*satconj.Result, time.Duration, error) {
	var best *satconj.Result
	var bestElapsed time.Duration
	for tries := 0; tries < 3 && bestElapsed < time.Second; tries++ {
		start := time.Now()
		res, err := satconj.ScreenContext(ctx.runCtx(), sats, o)
		elapsed := time.Since(start)
		if err != nil {
			return nil, elapsed, err
		}
		if best == nil || elapsed < bestElapsed {
			best, bestElapsed = res, elapsed
		}
	}
	return best, bestElapsed, nil
}

// fig10Variants builds the sweep's runs from the detector registry: the
// O(n²) baselines first (bare names, capped at legacyCap objects), then
// every other registered variant on the CPU pool. A newly registered
// detector joins every fig10 sweep with no edits here.
func fig10Variants(ctx *benchCtx, includeLegacy bool, legacyCap int) []variantRun {
	base := satconj.Options{ThresholdKm: ctx.threshold, DurationSeconds: ctx.duration}
	var vs []variantRun
	if includeLegacy {
		for _, d := range satconj.Variants() {
			if !d.Baseline {
				continue
			}
			name := d.Name
			vs = append(vs, variantRun{string(name), func(s []satconj.Satellite) (*satconj.Result, time.Duration, error) {
				if len(s) > legacyCap {
					return nil, 0, errSkip
				}
				o := base
				o.Variant = name
				return screenTimed(ctx, s, o)
			}})
		}
	}
	for _, d := range satconj.Variants() {
		if d.Baseline {
			continue
		}
		name := d.Name
		vs = append(vs, variantRun{string(name) + "-cpu", func(s []satconj.Satellite) (*satconj.Result, time.Duration, error) {
			o := base
			o.Variant = name
			return screenTimed(ctx, s, o)
		}})
	}
	return vs
}

var errSkip = fmt.Errorf("skipped")

// writeSVG stores the figure when -svg was requested.
func writeSVG(ctx *benchCtx, name string, fig *report.Figure, logY bool) error {
	if ctx.svgDir == "" {
		return nil
	}
	if err := os.MkdirAll(ctx.svgDir, 0o755); err != nil {
		return err
	}
	path := ctx.svgDir + "/" + name + ".svg"
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fig.WriteSVG(f, report.SVGOptions{LogY: logY}); err != nil {
		f.Close() // the write error is the one to report
		return err
	}
	// A failed Close means a truncated figure on disk; report it.
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("(SVG written to %s)\n", path)
	return nil
}

func runFig10(ctx *benchCtx, title string, sizes []int, includeLegacy bool, legacyCap int) error {
	fmt.Printf("span %.0f s, threshold %.1f km (paper scale: -full; see EXPERIMENTS.md for scaling notes)\n\n", ctx.duration, ctx.threshold)
	var fig report.Figure
	fig.Title = title
	fig.XLabel, fig.YLabel = "satellites", "runtime_s"
	variants := fig10Variants(ctx, includeLegacy, legacyCap)
	for _, n := range sizes {
		sats, err := satconj.GeneratePopulation(satconj.PopulationConfig{N: n, Seed: ctx.seed})
		if err != nil {
			return err
		}
		for _, v := range variants {
			res, elapsed, err := v.run(sats)
			if err == errSkip {
				continue
			}
			if err != nil {
				return fmt.Errorf("%s at n=%d: %w", v.name, n, err)
			}
			fig.Add(v.name, float64(n), elapsed.Seconds())
			fmt.Printf("  n=%-8d %-14s %10.3fs  conj=%d\n", n, v.name, elapsed.Seconds(), len(res.Conjunctions))
		}
	}
	fmt.Println()
	if err := writeSVG(ctx, strings.ReplaceAll(title[:8], " ", ""), &fig, true); err != nil {
		return err
	}
	if ctx.csv {
		return fig.WriteCSV(os.Stdout)
	}
	return fig.WriteASCII(os.Stdout)
}

func runFig10a(ctx *benchCtx) error {
	sizes := []int{1000, 2000, 4000}
	if ctx.full {
		sizes = []int{2000, 4000, 8000}
	}
	return runFig10(ctx, "Fig. 10a — small populations", sizes, true, 4000)
}

func runFig10b(ctx *benchCtx) error {
	sizes := []int{8000, 16000, 32000}
	legacyCap := 8000
	if ctx.full {
		sizes = []int{16000, 32000, 64000}
		legacyCap = 64000
	}
	return runFig10(ctx, "Fig. 10b — medium populations", sizes, true, legacyCap)
}

func runFig10c(ctx *benchCtx) error {
	sizes := []int{16000, 32000, 64000}
	if ctx.full {
		sizes = []int{128000, 256000, 512000, 1024000}
	}
	fmt.Printf("device memory budget: %d MiB — the §V-B planner auto-reduces the hybrid s_ps\n", ctx.memBudget>>20)
	fmt.Printf("span %.0f s, threshold %.1f km\n\n", ctx.duration, ctx.threshold)

	planner := model.Planner{MemoryBytes: ctx.memBudget, Model: model.PaperHybrid}
	var fig report.Figure
	fig.Title = "Fig. 10c — large populations"
	fig.XLabel, fig.YLabel = "satellites", "runtime_s"
	t := report.NewTable("", "n", "variant", "s_ps [s]", "p (parallel steps)", "runtime [s]", "conjunctions")
	for _, n := range sizes {
		sats, err := satconj.GeneratePopulation(satconj.PopulationConfig{N: n, Seed: ctx.seed})
		if err != nil {
			return err
		}
		// Hybrid: planner-tuned s_ps (the degradation under memory pressure).
		plan, err := planner.AutoTuneHybrid(n, ctx.duration, ctx.threshold, 9)
		if err != nil {
			return fmt.Errorf("planner at n=%d: %w", n, err)
		}
		res, elapsed, err := screenTimed(ctx, sats, satconj.Options{
			Variant: satconj.VariantHybrid, ThresholdKm: ctx.threshold,
			DurationSeconds: ctx.duration, SecondsPerSample: plan.SecondsPerSample,
		})
		if err != nil {
			return err
		}
		fig.Add("hybrid(planned)", float64(n), elapsed.Seconds())
		t.AddRow(n, "hybrid(planned)", plan.SecondsPerSample, plan.P, fmt.Sprintf("%.3f", elapsed.Seconds()), len(res.Conjunctions))

		// Grid: fixed fine sampling, lower memory, no degradation.
		resG, elapsedG, err := screenTimed(ctx, sats, satconj.Options{
			Variant: satconj.VariantGrid, ThresholdKm: ctx.threshold,
			DurationSeconds: ctx.duration,
		})
		if err != nil {
			return err
		}
		fig.Add("grid", float64(n), elapsedG.Seconds())
		t.AddRow(n, "grid", 1.0, "-", fmt.Sprintf("%.3f", elapsedG.Seconds()), len(resG.Conjunctions))
	}
	if err := t.WriteASCII(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if ctx.csv {
		return fig.WriteCSV(os.Stdout)
	}
	return fig.WriteASCII(os.Stdout)
}

// ------------------------------------------------------------------ V-C1

func runTimeshare(ctx *benchCtx) error {
	n := 8000
	// Densified defaults (like the accuracy experiment): at laptop scale a
	// 2 km screen produces almost no refinement work, which would hide the
	// CD phase the paper's breakdown is about.
	duration := ctx.durationOr(1200)
	threshold := ctx.thresholdOr(10)
	if ctx.full {
		n, duration, threshold = 64000, 86400, 2
	}
	sats, err := satconj.GeneratePopulation(satconj.PopulationConfig{N: n, Seed: ctx.seed})
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Phase shares at n=%d, span %.0f s, threshold %.1f km", n, duration, threshold),
		"Variant", "CD %", "INS %", "REF %", "coplanarity %")
	for _, v := range []satconj.Variant{satconj.VariantGrid, satconj.VariantHybrid} {
		res, _, err := screenTimed(ctx, sats, satconj.Options{
			Variant: v, ThresholdKm: threshold, DurationSeconds: duration,
		})
		if err != nil {
			return err
		}
		st := res.Stats
		total := float64(st.Total())
		t.AddRow(string(v),
			fmt.Sprintf("%.0f", 100*float64(st.Detection)/total),
			fmt.Sprintf("%.0f", 100*float64(st.Insertion)/total),
			fmt.Sprintf("%.0f", 100*float64(st.Refine)/total),
			fmt.Sprintf("%.0f", 100*float64(st.Coplanarity)/total))
	}
	if err := t.WriteASCII(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\nPaper reference: hybrid GPU 68/21/9, hybrid CPU 87/9/3, grid GPU 72/26/-, grid CPU 92/7/-")
	return nil
}

// ------------------------------------------------------------------ V-C2

func runThreads(ctx *benchCtx) error {
	n := 16000
	if ctx.full {
		n = 64000
	}
	sats, err := satconj.GeneratePopulation(satconj.PopulationConfig{N: n, Seed: ctx.seed})
	if err != nil {
		return err
	}
	maxW := runtime.NumCPU()
	var workerCounts []int
	for w := 1; w < 2*maxW; w *= 2 { // powers of two, then maxW
		workerCounts = append(workerCounts, min(w, maxW))
	}
	t := report.NewTable(fmt.Sprintf("Thread scaling at n=%d, span %.0f s, best of 5 screens (host has %d CPUs)", n, ctx.duration, maxW),
		"Variant", "Threads", "Runtime [s]", "Speedup", "Efficiency")
	for _, v := range []satconj.Variant{satconj.VariantGrid, satconj.VariantHybrid} {
		var t1 float64
		for _, w := range workerCounts {
			o := satconj.Options{Variant: v, ThresholdKm: ctx.threshold, DurationSeconds: ctx.duration, Workers: w}
			secs := math.Inf(1)
			for range 5 { // the fastest screen, the one the rest of the host disturbed least
				start := time.Now()
				if _, err := satconj.ScreenContext(ctx.runCtx(), sats, o); err != nil {
					return err
				}
				secs = min(secs, time.Since(start).Seconds())
			}
			if w == 1 {
				t1 = secs
			}
			t.AddRow(string(v), w, fmt.Sprintf("%.3f", secs),
				fmt.Sprintf("%.2f", t1/secs), fmt.Sprintf("%.0f%%", 100*t1/secs/float64(w)))
		}
	}
	if err := t.WriteASCII(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\nPaper reference (32 threads): grid 19× (59% efficiency), hybrid 14× (44%).")
	if maxW == 1 {
		fmt.Println("NOTE: this host has a single CPU; the curve is degenerate (see EXPERIMENTS.md).")
	}
	return nil
}

// ------------------------------------------------------------------ V-C3

func runTDP(ctx *benchCtx) error {
	n := 4000
	if ctx.full {
		n = 64000
	}
	sats, err := satconj.GeneratePopulation(satconj.PopulationConfig{N: n, Seed: ctx.seed})
	if err != nil {
		return err
	}
	_, elapsed, err := screenTimed(ctx, sats, satconj.Options{
		Variant: satconj.VariantHybrid, ThresholdKm: ctx.threshold, DurationSeconds: ctx.duration})
	if err != nil {
		return err
	}
	secs := elapsed.Seconds()
	t := report.NewTable(fmt.Sprintf("Energy model at n=%d (runtime × TDP; one run on this host, so the rows differ only by TDP)", n),
		"Configuration", "Runtime [s]", "TDP [W]", "Energy [J]")
	// TDP figures from Table I / §V-C3.
	for _, h := range []struct {
		name string
		tdpW float64
	}{
		{"this host as 'AMD 5950X' (105 W)", 105},
		{"this host as '2× Xeon 9242' (700 W)", 700},
	} {
		t.AddRow(h.name, fmt.Sprintf("%.3f", secs), h.tdpW, fmt.Sprintf("%.0f", secs*h.tdpW))
	}
	if err := t.WriteASCII(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\nNOTE: the table reproduces the paper's energy *accounting method*, not its")
	fmt.Println("silicon comparison; the GPU row is not reproduced (DESIGN.md §7).")
	return nil
}

// ------------------------------------------------------------------- V-D

func runAccuracy(ctx *benchCtx) error {
	n := ctx.accN
	// At laptop scale the paper's 2 km / 1 day / 64k parameterisation has
	// to be densified to produce statistically meaningful counts: the
	// conjunction count scales as n²·t·d^~1.5 (Eqs. 3/4), so 2k objects
	// over 1 h at 10 km land in the tens of events.
	duration := ctx.durationOr(3600)
	threshold := ctx.thresholdOr(10)
	if ctx.full {
		n, duration, threshold = 64000, 86400, 2
	}
	sats, err := satconj.GeneratePopulation(satconj.PopulationConfig{N: n, Seed: ctx.seed})
	if err != nil {
		return err
	}
	fmt.Printf("population n=%d, span %.0f s, threshold %.1f km\n\n", n, duration, threshold)

	type outcome struct {
		name  string
		res   *satconj.Result
		pairs map[[2]int32]bool
	}
	// Every registered variant joins the agreement table automatically; the
	// legacy baseline — the paper's accuracy reference — anchors the
	// missing/extra columns.
	var outs []outcome
	legacyPairs := map[[2]int32]bool{}
	for _, d := range satconj.Variants() {
		res, elapsed, err := screenTimed(ctx, sats, satconj.Options{
			Variant: d.Name, ThresholdKm: threshold, DurationSeconds: duration,
		})
		if err != nil {
			return err
		}
		pairs := map[[2]int32]bool{}
		for _, c := range res.Conjunctions {
			pairs[[2]int32{c.A, c.B}] = true
		}
		outs = append(outs, outcome{string(d.Name), res, pairs})
		if d.Name == satconj.VariantLegacy {
			legacyPairs = pairs
		}
		fmt.Printf("  %-8s %8.3fs\n", d.Name, elapsed.Seconds())
	}
	fmt.Println()

	t := report.NewTable("", "Variant", "Conjunctions", "Events (merged)", "Unique pairs", "Missing vs legacy", "Extra vs legacy")
	for _, o := range outs {
		missing, extra := 0, 0
		for p := range legacyPairs {
			if !o.pairs[p] {
				missing++
			}
		}
		for p := range o.pairs {
			if !legacyPairs[p] {
				extra++
			}
		}
		t.AddRow(o.name, len(o.res.Conjunctions), len(o.res.Events(10)), len(o.pairs), missing, extra)
	}
	if err := t.WriteASCII(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\nPaper reference at 64k: legacy 17,184 conjunctions; grid 17,264 (5 pairs missed,")
	fmt.Println("35 extra); hybrid 17,242 (0 missed, 30 extra). Expected shape: near-total pair")
	fmt.Println("agreement, small extras from duplicate multi-step detections near the threshold.")
	return nil
}
