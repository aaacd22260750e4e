// Command paperbench regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	paperbench -exp list            # list experiment ids
//	paperbench -exp all             # run everything at the default scale
//	paperbench -exp fig10a          # one experiment
//	paperbench -exp fig10a,fig10b   # several
//	paperbench -exp accuracy -accn 4000
//	paperbench -exp fig10b -duration 1200 -full
//
// The default scale is sized for a laptop-class host: population sizes and
// screening spans are reduced relative to the paper (which used a 96-core
// node, an RTX 3090 and day-long spans); -full switches to the paper's
// sizes. Shapes — who wins, crossover locations, memory-driven degradation
// — are preserved at either scale. The tables are the paper's; how this
// code's timings move from commit to commit is bench/'s job (BENCHMARK.json).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
)

// experiment is one reproducible table/figure.
type experiment struct {
	id    string
	title string
	run   func(ctx *benchCtx) error
}

var experiments = []experiment{
	{"tab1", "Table I — benchmark system configuration", runTab1},
	{"tab2", "Table II — Kepler element generation ranges", runTab2},
	{"fig1", "Fig. 1 — LEO payloads launched by year and funding (context figure)", runFig1},
	{"fig2", "Fig. 2 — inter-satellite distance over time with PCAs/TCAs", runFig2},
	{"fig9", "Fig. 9 — bivariate (semi-major axis, eccentricity) density", runFig9},
	{"eq34", "Eqs. 3/4 — conjunction-count power-law models (Extra-P substitution)", runEq34},
	{"fig10a", "Fig. 10a — runtime, small populations", runFig10a},
	{"fig10b", "Fig. 10b — runtime, medium populations", runFig10b},
	{"fig10c", "Fig. 10c — runtime, large populations with memory-driven s_ps degradation", runFig10c},
	{"timeshare", "§V-C1 — relative time consumption per phase", runTimeshare},
	{"threads", "§V-C2 — CPU thread-count speedup", runThreads},
	{"tdp", "§V-C3 — energy comparison (TDP model, CPU rows)", runTDP},
	{"accuracy", "§V-D — accuracy: conjunction counts and pair agreement", runAccuracy},
	{"treecmp", "4D AABB tree vs grid family — head-to-head on contrasting populations", runTreecmp},
	{"scale", "§V-B at scale — grid screening of 131k–1M-object catalogues with peak-heap capture", runScale},
}

func main() {
	ctx := &benchCtx{}
	var exp string
	flag.StringVar(&exp, "exp", "list", "experiment id (comma-separated for several), 'all', or 'list'")
	flag.Uint64Var(&ctx.seed, "seed", 1, "population seed")
	flag.Float64Var(&ctx.duration, "duration", 600, "screening span (seconds)")
	flag.Float64Var(&ctx.threshold, "threshold", 2, "screening threshold (km)")
	flag.BoolVar(&ctx.full, "full", false, "paper-scale population sizes (hours of compute)")
	flag.IntVar(&ctx.accN, "accn", 2000, "population size for the accuracy experiment")
	flag.Int64Var(&ctx.memBudget, "membudget", 1<<30, "simulated device memory budget for fig10c (bytes)")
	flag.BoolVar(&ctx.csv, "csv", false, "emit CSV instead of ASCII tables where applicable")
	flag.StringVar(&ctx.svgDir, "svg", "", "also write figures as SVG files into this directory")
	flag.Parse()
	ctx.visited = map[string]bool{}
	flag.Visit(func(f *flag.Flag) { ctx.visited[f.Name] = true })

	// SIGINT/SIGTERM cancels the current screening run through the context
	// plumbing, so even a long -full sweep unwinds within about one sampling
	// step.
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ctx.ctx = sigCtx

	if exp == "list" {
		listExperiments()
		return
	}
	todo := experiments
	if exp != "all" {
		todo = nil
		for _, id := range strings.Split(exp, ",") {
			e, ok := lookupExperiment(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "paperbench: unknown experiment %q\n\n", id)
				listExperiments()
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	}
	for _, e := range todo {
		banner(e)
		if err := e.run(ctx); err != nil {
			fail(e.id, err)
		}
		fmt.Println()
	}
}

// lookupExperiment resolves one experiment id.
func lookupExperiment(id string) (experiment, bool) {
	for _, e := range experiments {
		if e.id == id {
			return e, true
		}
	}
	return experiment{}, false
}

// fail reports an experiment error and exits; an interrupt gets the
// conventional 130 status.
func fail(id string, err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "paperbench: %s: interrupted, run cancelled cleanly\n", id)
		os.Exit(130)
	}
	fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", id, err)
	os.Exit(1)
}

func listExperiments() {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	sort.Strings(ids)
	fmt.Println("experiments:")
	for _, e := range experiments {
		fmt.Printf("  %-10s %s\n", e.id, e.title)
	}
	fmt.Println("\nrun with: paperbench -exp <id> | all")
}

func banner(e experiment) {
	line := strings.Repeat("=", len(e.title)+8)
	fmt.Printf("%s\n=== %s ===\n%s\n", line, e.title, line)
}

// benchCtx carries the shared flags plus the run context.
type benchCtx struct {
	seed      uint64
	duration  float64
	threshold float64
	full      bool
	accN      int
	memBudget int64
	csv       bool
	svgDir    string
	visited   map[string]bool // flags the user set explicitly
	ctx       context.Context // cancelled on SIGINT/SIGTERM
}

// runCtx is the cancellation context for screening runs.
func (c *benchCtx) runCtx() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// durationOr returns the user's -duration, or def when it was left at the
// global default — some experiments need a denser parameterisation to
// produce non-trivial counts at laptop scale.
func (c *benchCtx) durationOr(def float64) float64 {
	if c.visited["duration"] {
		return c.duration
	}
	return def
}

// thresholdOr is durationOr for -threshold.
func (c *benchCtx) thresholdOr(def float64) float64 {
	if c.visited["threshold"] {
		return c.threshold
	}
	return def
}
