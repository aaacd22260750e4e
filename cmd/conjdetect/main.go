// Command conjdetect screens a satellite population for conjunctions —
// the end-user tool over the satconj library.
//
// Usage:
//
//	conjdetect -tle population.tle -variant hybrid -threshold 2 -duration 3600
//	conjdetect -n 10000 -seed 1 -variant grid -duration 600
//	conjdetect -n 2000 -variant legacy -duration 600
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	satconj "repro"
	"repro/internal/report"
)

func main() {
	var (
		tleFile   = flag.String("tle", "", "TLE catalogue to screen (otherwise a synthetic population is generated)")
		n         = flag.Int("n", 2000, "synthetic population size when no -tle is given")
		seed      = flag.Uint64("seed", 1, "synthetic population seed")
		variant   = flag.String("variant", "hybrid", "screening variant: "+strings.Join(satconj.VariantNames(), " | "))
		threshold = flag.Float64("threshold", 2, "screening threshold d (km)")
		duration  = flag.Float64("duration", 3600, "screening span (seconds)")
		sps       = flag.Float64("sps", 0, "seconds per sample (0 = variant default)")
		workers   = flag.Int("workers", 0, "CPU workers (0 = all)")
		useJ2     = flag.Bool("j2", false, "propagate with the secular J2 perturbation")
		eventsTol = flag.Float64("events-tol", 10, "merge window (s) for multi-step duplicates; 0 prints raw conjunctions")
		maxPrint  = flag.Int("max-print", 50, "print at most this many conjunctions (0 = all)")
		quiet     = flag.Bool("q", false, "suppress the conjunction listing, print only the summary")
		cdmFile   = flag.String("cdm", "", "write CCSDS Conjunction Data Messages to this file ('-' = stdout)")
		sigma     = flag.Float64("sigma", 0, "per-object position uncertainty (km); widens the screen and enables the Pc column")
		hardBody  = flag.Float64("hard-body", 0.01, "combined hard-body radius (km) for the Pc column")
		progress  = flag.Bool("progress", false, "print per-phase and sampling progress to stderr while screening")
	)
	flag.Parse()

	// Ctrl-C cancels the run through the pipeline's context plumbing: the
	// screen unwinds within about one sampling step, pooled structures are
	// returned, and conjdetect exits non-zero with a clean message instead
	// of being killed mid-run. A second Ctrl-C kills immediately.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	sats, err := loadPopulation(*tleFile, *n, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "conjdetect:", err)
		os.Exit(1)
	}

	opts := satconj.Options{
		Variant:          satconj.Variant(*variant),
		ThresholdKm:      *threshold,
		DurationSeconds:  *duration,
		SecondsPerSample: *sps,
		Workers:          *workers,
		UseJ2:            *useJ2,
	}
	if *sigma > 0 {
		opts.Uncertainty = satconj.UniformUncertainty(*sigma)
	}
	if *progress {
		opts.Observer = progressObserver(os.Stderr)
	}

	start := time.Now()
	res, err := satconj.ScreenContext(ctx, sats, opts)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "conjdetect: interrupted, run cancelled cleanly")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "conjdetect:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	conjs := res.Conjunctions
	if *eventsTol > 0 {
		conjs = res.Events(*eventsTol)
	}

	if *cdmFile != "" {
		if err := writeCDMs(*cdmFile, conjs, sats, opts); err != nil {
			fmt.Fprintln(os.Stderr, "conjdetect:", err)
			os.Exit(1)
		}
	}

	if !*quiet {
		cols := []string{"A", "B", "TCA [s]", "PCA [km]"}
		if *sigma > 0 {
			cols = append(cols, "Pc", "bucket")
		}
		tbl := report.NewTable(
			fmt.Sprintf("Conjunctions (variant=%s backend=%s threshold=%.1f km span=%.0f s)",
				res.Variant, res.Backend, *threshold, *duration),
			cols...)
		limit := len(conjs)
		if *maxPrint > 0 && limit > *maxPrint {
			limit = *maxPrint
		}
		for _, c := range conjs[:limit] {
			row := []interface{}{int(c.A), int(c.B), fmt.Sprintf("%.2f", c.TCA), fmt.Sprintf("%.4f", c.PCA)}
			if *sigma > 0 {
				a, err := satconj.CollisionProbability(c, *sigma, *sigma, *hardBody)
				if err == nil {
					row = append(row, fmt.Sprintf("%.2e", a.Pc), a.Category)
				} else {
					row = append(row, "-", "-")
				}
			}
			tbl.AddRow(row...)
		}
		if err := tbl.WriteASCII(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "conjdetect:", err)
			os.Exit(1)
		}
		if limit < len(conjs) {
			fmt.Printf("… and %d more\n", len(conjs)-limit)
		}
		fmt.Println()
	}

	fmt.Printf("objects:          %s\n", report.GroupThousands(fmt.Sprint(len(sats))))
	fmt.Printf("conjunctions:     %s (raw %s, unique pairs %s)\n",
		report.GroupThousands(fmt.Sprint(len(conjs))),
		report.GroupThousands(fmt.Sprint(len(res.Conjunctions))),
		report.GroupThousands(fmt.Sprint(res.UniquePairs())))
	fmt.Printf("wall time:        %v\n", elapsed.Round(time.Millisecond))
	st := res.Stats
	if st.Total() > 0 {
		fmt.Printf("phase breakdown:  INS %.0f%%  CD %.0f%% (sort %.0f%%)  REF %.0f%%  coplanarity %.0f%%\n",
			100*float64(st.Insertion)/float64(st.Total()),
			100*float64(st.Detection)/float64(st.Total()),
			100*float64(st.Sort)/float64(st.Total()),
			100*float64(st.Refine)/float64(st.Total()),
			100*float64(st.Coplanarity)/float64(st.Total()))
	}
	if st.GridCandidates > 0 {
		fmt.Printf("grid candidates:  %s, %s past the radial test, %s past the motion test (filter-rejected %s, refinements %s)\n",
			report.GroupThousands(fmt.Sprint(st.GridCandidates)),
			report.GroupThousands(fmt.Sprint(st.CandidatePairs+st.MotionGated)),
			report.GroupThousands(fmt.Sprint(st.CandidatePairs)),
			report.GroupThousands(fmt.Sprint(st.FilterRejected)),
			report.GroupThousands(fmt.Sprint(st.Refinements)))
	}
	switch {
	case st.KnotStride > 1:
		fmt.Printf("positions:        solved every %d steps, Hermite between, pad %.2g km\n", st.KnotStride, st.PositionPadKm)
		if all := len(sats) * st.Steps; all > 0 && st.DirtyObjects == 0 {
			fmt.Printf("listed:           %.1f%% of object-steps built: every object at knot steps, between them those whose knot-interval boxes meet another's\n",
				100*float64(st.VisitedObjectSteps)/float64(all))
		}
	case st.KnotStride == 1:
		fmt.Println("positions:        solved every step")
	}
	if st.OutOfBounds > 0 {
		fmt.Printf("out-of-cube samples: %d\n", st.OutOfBounds)
	}
	if st.TrackBytes > 0 || st.TrackDropped != "" {
		fmt.Printf("key track:        %d rows valid of %d B, %d object-steps visited (dropped: %q)\n",
			st.TrackedObjects, st.TrackBytes, st.VisitedObjectSteps, st.TrackDropped)
	}
}

// progressObserver renders pipeline progress on w: a carriage-return
// step counter during sampling (thinned to ~every 2% of the run) and one
// line per finished phase. Observer calls are serialised by the pipeline,
// so no locking is needed here.
func progressObserver(w *os.File) satconj.Observer {
	sampling := false
	return satconj.ObserverFuncs{
		Step: func(s satconj.StepInfo) {
			every := s.Steps / 50
			if every < 1 {
				every = 1
			}
			if s.Completed%every == 0 || s.Completed == s.Steps {
				fmt.Fprintf(w, "\rsampling %d/%d steps  pairs=%d", s.Completed, s.Steps, s.Candidates)
				sampling = true
			}
		},
		Phase: func(p satconj.PhaseInfo) {
			if sampling {
				fmt.Fprintln(w)
				sampling = false
			}
			switch p.Phase {
			case satconj.PhaseAllocate:
				fmt.Fprintf(w, "phase %-8s %8.1f ms\n", p.Phase, p.Elapsed.Seconds()*1e3)
			case satconj.PhaseSample, satconj.PhaseFilter:
				fmt.Fprintf(w, "phase %-8s %8.1f ms  candidates=%d\n", p.Phase, p.Elapsed.Seconds()*1e3, p.Candidates)
			case satconj.PhaseRefine:
				fmt.Fprintf(w, "phase %-8s %8.1f ms  conjunctions=%d\n", p.Phase, p.Elapsed.Seconds()*1e3, p.Conjunctions)
			}
		},
	}
}

func writeCDMs(path string, conjs []satconj.Conjunction, sats []satconj.Satellite, opts satconj.Options) (err error) {
	w := os.Stdout
	if path != "-" {
		var f *os.File
		f, err = os.Create(path)
		if err != nil {
			return err
		}
		// A failed Close on a freshly written file means truncated output;
		// surface it instead of deferring silently.
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		w = f
	}
	return satconj.WriteCDMs(w, conjs, sats, opts, time.Now().UTC(), "SATCONJ")
}

func loadPopulation(tleFile string, n int, seed uint64) ([]satconj.Satellite, error) {
	if tleFile == "" {
		return satconj.GeneratePopulation(satconj.PopulationConfig{N: n, Seed: seed})
	}
	f, err := os.Open(tleFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return satconj.LoadTLE(f)
}
