// Command bench is the repository's one benchmark: four workloads, five
// end-to-end metrics from an untraced run, and a traced run that adds the
// per-layer metrics and a span file. README.md defines every name.
//
//	go run ./bench                               # all workloads, untraced
//	go run ./bench -trace 1 -trace-out t.json    # all workloads, traced
//	go run ./bench -workload shell-grid-16k -seed 7 -seconds 20 -trace 0
//	go run ./bench -verify
//	go run ./bench -repeat-check A.json B.json
//
// With -workload the last line of standard output is the JSON object the
// pipeline reads (see ../BENCHMARK.json).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// workDir holds everything a run writes besides -out and -trace-out: the
// service's store and the per-workload result files of a suite run. It is
// relative to the working directory, so a run never leaves its checkout.
var workDir = ".bench_build"

// runBudget is how much a run measures. -seconds sets the timed section;
// the floors keep a very short run meaningful.
type runBudget struct {
	timed         time.Duration
	minScreens    int // untraced Screen calls
	minTracedReps int // plain+observed Screen pairs
	serialReps    int // Workers=1 screens behind core.parallel_speedup
	minDeltas     int // timed deltas of a service run
	probe         time.Duration
	verifyObjects int // population prefix the variants must agree on
}

func newBudget(seconds float64, smoke bool) runBudget {
	if smoke {
		return runBudget{minScreens: 2, minTracedReps: 1, serialReps: 1, minDeltas: 10,
			probe: 2 * time.Millisecond, verifyObjects: 500}
	}
	return runBudget{
		timed:      time.Duration(seconds * float64(time.Second)),
		minScreens: minScreenReps, minTracedReps: 2, serialReps: 2,
		minDeltas: minTimedDeltas,
		probe:     250 * time.Millisecond, verifyObjects: 4000,
	}
}

// processesPerRun is how many fresh processes share one untraced run of a
// workload. Screen and pass times differ by about 6 % from one process to
// the next on the same inputs (and not at all at GOMAXPROCS=1): whatever a
// process's first allocations set up stays for its lifetime, so more reps
// in one process do not average it out and more processes do. Each process
// sets up on its own and measures -seconds/processesPerRun.
const processesPerRun = 4

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	out      string
	smoke    bool
	shard    bool // this process is one of a run's processesPerRun
}

func main() {
	var (
		o           options
		trace       = flag.Int("trace", 0, "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics)")
		list        = flag.Bool("list", false, "print every workload and metric name and exit")
		verify      = flag.Bool("verify", false, "run only the correctness checks")
		repeatCheck = flag.Bool("repeat-check", false, "compare two -out files given as arguments against the bounds")
	)
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: each workload in a fresh process)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 16, "length of the timed section of each workload")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the spans here as Chrome-trace JSON")
	flag.StringVar(&o.out, "out", "", "write the results, with the environment header, to this file")
	flag.BoolVar(&o.shard, "shard", false, "internal: measure in this process, as one of the processes of a run")
	flag.BoolVar(&o.smoke, "smoke", false, "an eighth of the objects, two reps, ten deltas: exercises every path in seconds")
	flag.Parse()
	o.trace = *trace != 0

	var err error
	switch {
	case *list:
		printNames()
	case *repeatCheck:
		if flag.NArg() != 2 {
			err = errors.New("-repeat-check takes two result files")
		} else {
			err = repeatCheckFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
		}
	case *verify:
		err = runVerify(o)
	case o.workload != "":
		err = runOne(o)
	default:
		err = runSuite(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func printNames() {
	for _, w := range workloads {
		fmt.Printf("workload    %s\n", w.Name)
	}
	for _, m := range endToEnd {
		fmt.Printf("end_to_end  %s\n", m.Name)
	}
	for _, m := range perLayer {
		fmt.Printf("per_layer   %s\n", m.Name)
	}
}

// runWorkload measures one workload in this process.
func runWorkload(o options, tr *tracer) (*workloadResult, error) {
	spec, ok := lookupWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (-list names them)", o.workload)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	spec = spec.scaled(o.smoke)
	budget := newBudget(o.seconds, o.smoke)
	r := &workloadResult{Workload: spec.Name, Traced: o.trace, Metrics: map[string]summary{}}

	var err error
	switch {
	case o.trace:
		err = runTraced(spec, o.seed, budget, o.smoke, tr, r)
	case spec.Kind == kindService:
		err = runServiceUntraced(spec, o.seed, budget, r)
	default:
		err = runScreenUntraced(spec, o.seed, budget, r)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	if !o.trace {
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		r.set("peak_rss_mib", single(rss))
	}
	if miss := r.missing(); len(miss) > 0 {
		return nil, fmt.Errorf("%s: metrics not measured: %s", spec.Name, strings.Join(miss, ", "))
	}
	return r, nil
}

// runOne is the -workload mode, the one the pipeline drives. A traced run
// measures in this process; an untraced run spreads over processesPerRun
// fresh ones and reports their aggregate.
func runOne(o options) error {
	var tr *tracer
	if o.trace {
		tr = &tracer{}
	}
	env := captureEnvironment(o.seed, o.seconds, o.smoke)
	var r *workloadResult
	var err error
	if o.trace || o.shard || o.smoke {
		r, err = runWorkload(o, tr)
	} else {
		r, err = runSharded(o)
	}
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := writeResultFile(o.out, resultFile{Schema: resultSchema, Environment: env, Runs: []workloadResult{*r}}); err != nil {
			return err
		}
	}
	if o.trace && o.traceOut != "" {
		if err := tr.writeTrace(o.traceOut, r.Workload, env); err != nil {
			return err
		}
	}
	r.printTable(os.Stdout)
	fmt.Println(r.driverLine())
	if !r.correct() {
		return fmt.Errorf("%s: %d of %d ops failed", r.Workload, r.Failed, r.Attempted)
	}
	return nil
}

// runSharded runs the workload in processesPerRun fresh processes of this
// binary, one after the other, and aggregates what they measured.
func runSharded(o options) (*workloadResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var parts []workloadResult
	for i := 0; i < processesPerRun; i++ {
		// A process with failed ops exits non-zero after writing its file;
		// the failures are in the file, so only a missing file is an error.
		runs, _, err := runChild(self, nil, "-shard", "-workload", o.workload,
			"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds/processesPerRun))
		if err == nil && len(runs) != 1 {
			err = fmt.Errorf("%d runs in its result file, want 1", len(runs))
		}
		if err != nil {
			return nil, fmt.Errorf("process %d of %s: %w", i, o.workload, err)
		}
		parts = append(parts, runs[0])
	}
	return aggregate(parts), nil
}

// aggregate folds the processes of one run into one result: ops and
// failures add up, setup_s is the median process, every other metric the
// mean over processes of what each measured (its own median, its own p90),
// which is what averages the per-process differences out. N is the total
// number of ops behind the value; the quartiles are over processes.
func aggregate(parts []workloadResult) *workloadResult {
	r := &workloadResult{Workload: parts[0].Workload, Metrics: map[string]summary{}}
	for _, p := range parts {
		r.merge(p.tally)
	}
	for _, m := range endToEnd {
		var xs []float64
		n := 0
		for _, p := range parts {
			xs = append(xs, p.Metrics[m.Name].Value)
			n += p.Metrics[m.Name].N
		}
		s := summarize(xs, 0.5, 1)
		if m.Name != "setup_s" {
			s.Value = mean(xs)
		}
		s.N = n
		r.set(m.Name, s)
	}
	return r
}

// runChild runs this binary with args plus an -out file in workDir and
// returns the runs the child wrote there. exitErr is the child's exit
// status (non-zero when an op failed); err means it left no readable file.
func runChild(self string, stdout io.Writer, args ...string) (runs []workloadResult, exitErr, err error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, nil, err
	}
	tmp, err := os.CreateTemp(workDir, "result-*.json")
	if err != nil {
		return nil, nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	cmd := exec.Command(self, append(args, "-out", tmp.Name())...)
	cmd.Stdout, cmd.Stderr = stdout, os.Stderr
	exitErr = cmd.Run()
	f, err := readResultFile(tmp.Name())
	if err != nil {
		return nil, exitErr, errors.Join(exitErr, err)
	}
	return f.Runs, exitErr, nil
}

// runSuite runs every workload, each in a fresh process of this binary so
// that peak RSS is per workload and none inherits another's pool or heap.
func runSuite(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := resultFile{Schema: resultSchema, Environment: captureEnvironment(o.seed, o.seconds, o.smoke)}
	var failed []string
	for _, w := range workloads {
		args := []string{"-workload", w.Name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds)}
		if o.smoke {
			args = append(args, "-smoke")
		}
		if o.trace {
			args = append(args, "-trace", "1")
			if o.traceOut != "" {
				ext := filepath.Ext(o.traceOut)
				args = append(args, "-trace-out", strings.TrimSuffix(o.traceOut, ext)+"-"+w.Name+ext)
			}
		}
		runs, runErr, err := runChild(self, os.Stdout, args...)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		all.Runs = append(all.Runs, runs...)
		if runErr != nil {
			failed = append(failed, w.Name)
		}
	}
	if o.out != "" {
		if err := writeResultFile(o.out, all); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads with failed ops: %s", strings.Join(failed, ", "))
	}
	return nil
}
