package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// tally counts the ops a run attempted and the ones that failed, with the
// reason of each failure. An op is a Screen call, a delta, a read or a
// verification check.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

func (t *tally) ok() { t.Attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.Attempted++
	t.Failed++
	if len(t.Failures) < 20 { // enough to diagnose; a broken run fails every op
		t.Failures = append(t.Failures, fmt.Sprintf(format, args...))
	}
}

// check counts one op, failed when err is non-nil.
func (t *tally) check(err error) {
	if err != nil {
		t.fail("%v", err)
		return
	}
	t.ok()
}

func (t *tally) merge(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Failures = append(t.Failures, o.Failures...)
}

// workloadResult is one run of one workload: the end-to-end metrics of an
// untraced run or the per-layer metrics of a traced one.
type workloadResult struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	tally
	Metrics map[string]summary `json:"metrics"`
}

func (r *workloadResult) correct() bool { return r.Failed == 0 }

// set records a metric under its declared unit. A value that is not a
// number (an empty sample) is a failed op, not a crash in the encoder.
func (r *workloadResult) set(name string, s summary) {
	for _, v := range []float64{s.Value, s.Q1, s.Q3} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s is not a number", name)
			s = summary{N: s.N}
			break
		}
	}
	for _, group := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range group {
			if m.Name == name {
				s.Unit = m.Unit
				r.Metrics[name] = s
				return
			}
		}
	}
	panic("bench: metric " + name + " is not declared in spec.go")
}

// missing lists the declared metrics of the run's kind it did not set.
func (r *workloadResult) missing() []string {
	want := endToEnd
	if r.Traced {
		want = perLayer
	}
	var out []string
	for _, m := range want {
		if _, ok := r.Metrics[m.Name]; !ok {
			out = append(out, m.Name)
		}
	}
	return out
}

// printTable writes one line per metric: name, value, unit, sample count
// and quartiles.
func (r *workloadResult) printTable(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-20s %-40s %14.6g %-6s n=%-6d q1=%-12.6g q3=%.6g\n", r.Workload, n, m.Value, m.Unit, m.N, m.Q1, m.Q3)
	}
	fmt.Fprintf(w, "%-20s attempted=%d failed=%d\n", r.Workload, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%-20s FAILED: %s\n", r.Workload, f)
	}
}

// driverLine is the last line of a single-workload run's standard output,
// in the shape the pipeline parses.
func (r *workloadResult) driverLine() string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	for n, m := range r.Metrics {
		out.Metrics[n] = metric{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings; NaN is rejected before this point
	}
	return string(b)
}

// resultFile is the -out file: an environment header and every workload
// run of the invocation.
type resultFile struct {
	Schema      string           `json:"schema"`
	Environment environment      `json:"environment"`
	Runs        []workloadResult `json:"runs"`
}

const resultSchema = "satbench/v1"

func writeResultFile(path string, f resultFile) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return f, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return f, nil
}
