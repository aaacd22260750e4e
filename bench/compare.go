package main

import (
	"fmt"
	"io"
	"math"
)

// repeatCheckFiles compares two result files of the same commit, run by
// run: an end-to-end metric may be worse in B than in A by at most its
// bound (and the other way round — neither file is the baseline), and a
// per-layer count marked exact must not differ at all. It prints a row
// per compared metric and returns an error if any row is out.
func repeatCheckFiles(pathA, pathB string, w io.Writer) error {
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	if a.Environment.Seed != b.Environment.Seed || a.Environment.Smoke != b.Environment.Smoke {
		return fmt.Errorf("the files are of different inputs: seed %d/%d, smoke %t/%t",
			a.Environment.Seed, b.Environment.Seed, a.Environment.Smoke, b.Environment.Smoke)
	}
	key := func(r workloadResult) string { return fmt.Sprintf("%s/traced=%t", r.Workload, r.Traced) }
	runsB := make(map[string]workloadResult)
	for _, r := range b.Runs {
		runsB[key(r)] = r
	}
	out, compared := 0, 0
	for _, ra := range a.Runs {
		rb, ok := runsB[key(ra)]
		if !ok {
			continue
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(w, "%-20s failed ops: %d vs %d  OUT\n", ra.Workload, ra.Failed, rb.Failed)
			out++
		}
		specs := endToEnd
		if ra.Traced {
			specs = perLayer
		}
		for _, m := range specs {
			va, okA := ra.Metrics[m.Name]
			vb, okB := rb.Metrics[m.Name]
			if !okA || !okB || (ra.Traced && !m.Exact) {
				continue
			}
			compared++
			verdict := "ok"
			if m.Exact {
				if va.Value != vb.Value { //lint:floateq-ok counts stored as float64 must match exactly
					verdict = "OUT (must repeat exactly)"
					out++
				}
				fmt.Fprintf(w, "%-20s %-28s %14.6g %14.6g %-6s %s\n", ra.Workload, m.Name, va.Value, vb.Value, m.Unit, verdict)
				continue
			}
			diff := relativeGap(va.Value, vb.Value)
			if diff > m.Bound {
				verdict = "OUT"
				out++
			}
			fmt.Fprintf(w, "%-20s %-28s %14.6g %14.6g %-6s gap %5.1f%% bound %4.1f%%  %s\n",
				ra.Workload, m.Name, va.Value, vb.Value, m.Unit, 100*diff, 100*m.Bound, verdict)
		}
	}
	if compared == 0 {
		return fmt.Errorf("the files share no run to compare")
	}
	if out > 0 {
		return fmt.Errorf("%d of %d compared metrics are out of bounds", out, compared)
	}
	return nil
}

// relativeGap is |a−b| as a share of the smaller magnitude: the amount by
// which the worse of two runs is worse than the better, whichever
// direction the metric improves in.
func relativeGap(a, b float64) float64 {
	lo := math.Min(math.Abs(a), math.Abs(b))
	if lo == 0 { //lint:floateq-ok guarding the division
		if a == b { //lint:floateq-ok both exactly zero
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / lo
}
