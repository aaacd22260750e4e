package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of an empty sample must be NaN")
	}
	s := summarize([]float64{1, 2, 3, 4, 5}, 0.5, 1e3)
	if s.Value != 3000 || s.Q1 != 2000 || s.Q3 != 4000 || s.N != 5 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestSelfSeconds(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	spans := []span{
		{Name: "screen", Parent: -1, Start: at(0), End: at(10)},
		{Name: "sample", Parent: 0, Start: at(1), End: at(7)},
		{Name: "refine", Parent: 0, Start: at(6), End: at(9)}, // overlaps sample by 1 s
		{Name: "step", Parent: 1, Start: at(1), End: at(3)},
	}
	self := selfSeconds(spans)
	for name, want := range map[string]float64{"screen": 2, "sample": 4, "refine": 3, "step": 2} {
		if math.Abs(self[name]-want) > 1e-9 {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		w = w.scaled(true)
		a, err := generatePopulation(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generatePopulation(w, 7)
		c, _ := generatePopulation(w, 8)
		if len(a) != w.N || len(b) != w.N {
			t.Fatalf("%s: %d objects, want %d", w.Name, len(a), w.N)
		}
		differs := false
		for i := range a {
			if a[i].Elements != b[i].Elements {
				t.Fatalf("%s: object %d differs between two draws of seed 7", w.Name, i)
			}
			differs = differs || a[i].Elements != c[i].Elements
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 drew the same population", w.Name)
		}
	}
}

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// Every name the benchmark emits is declared in BENCHMARK.json with the
// same unit, direction and bound, and the other way round.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the allowed alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.Name)
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go has %q / %q", i, doc.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in spec.go", len(doc.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range endToEnd {
		checkName(m.Name)
		d := doc.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, spec.go has %+v", i, d, m)
		}
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in spec.go", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		checkName(m.Name)
		d := doc.PerLayer[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, spec.go has %+v", i, d, m)
		}
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// The smoke profile drives every workload end to end, untraced, and the
// traced run — layers, service sample, probes, verifier — of one screening
// workload and of the service workload.
func TestSmokeEveryWorkload(t *testing.T) {
	workDir = t.TempDir()
	run := func(name string, trace bool) {
		var tr *tracer
		if trace {
			tr = &tracer{}
		}
		r, err := runWorkload(options{workload: name, seed: 3, smoke: true, trace: trace}, tr)
		if err != nil {
			t.Fatalf("%s traced=%t: %v", name, trace, err)
		}
		if !r.correct() || r.Attempted == 0 {
			t.Errorf("%s traced=%t: attempted %d, failed %d: %v", name, trace, r.Attempted, r.Failed, r.Failures)
		}
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(r.driverLine()), &line); err != nil {
			t.Fatalf("%s: driver line: %v", name, err)
		}
		want := endToEnd
		if trace {
			want = perLayer
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("%s traced=%t: %d metrics in the driver line, want %d", name, trace, len(line.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := line.Metrics[m.Name]
			if !ok || got.Value == nil || got.Unit != m.Unit {
				t.Errorf("%s traced=%t: metric %s missing or without its unit %q", name, trace, m.Name, m.Unit)
			}
		}
		if trace {
			path := filepath.Join(workDir, name+"-trace.json")
			if err := tr.writeTrace(path, name, captureEnvironment(3, 0, true)); err != nil {
				t.Fatal(err)
			}
			var doc chromeTrace
			raw, _ := os.ReadFile(path)
			if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 || doc.Environment.GoVersion == "" {
				t.Errorf("%s: trace file does not load: %v (%d events)", name, err, len(doc.TraceEvents))
			}
		}
	}
	for _, w := range workloads {
		run(w.Name, false)
	}
	run("shell-grid-16k", true)
	run("service-hybrid-8k", true)

	if err := runVerify(options{seed: 3, smoke: true}); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestRepeatCheck(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, op, candidates float64) string {
		f := resultFile{Schema: resultSchema, Environment: captureEnvironment(1, 20, false), Runs: []workloadResult{
			{Workload: "shell-grid-16k", Metrics: map[string]summary{"op_p50_ms": {Value: op, Unit: "ms", N: 9}}},
			{Workload: "shell-grid-16k", Traced: true, Metrics: map[string]summary{
				"core.candidate_pairs": {Value: candidates, Unit: "count", N: 1},
				"core.insertion_s":     {Value: op / 1200, Unit: "s", N: 3}, // never compared: no bound, not exact
			}},
		}}
		path := filepath.Join(dir, name)
		if err := writeResultFile(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bound := 0.0
	for _, m := range endToEnd {
		if m.Name == "op_p50_ms" {
			bound = m.Bound
		}
	}
	base := write("a.json", 2000, 8435)
	var out bytes.Buffer
	if err := repeatCheckFiles(base, write("b.json", 2000*(1+bound/2), 8435), &out); err != nil {
		t.Errorf("half the bound apart: %v\n%s", err, out.String())
	}
	if err := repeatCheckFiles(base, write("c.json", 2000*(1+1.5*bound), 8435), &out); err == nil {
		t.Error("one and a half bounds apart passed")
	}
	if err := repeatCheckFiles(write("d.json", 2000*(1+1.5*bound), 8435), base, &out); err == nil {
		t.Error("the check must not depend on the order of the files")
	}
	if err := repeatCheckFiles(base, write("e.json", 2000, 8436), &out); err == nil {
		t.Error("an exact count that differs passed")
	}
}
