// This battery runs from an external test package on purpose: legacy
// imports core, so in-package core tests can never see it without
// an import cycle — `go test ./internal/core` registers only the
// in-package detectors (grid, hybrid). The blank import below loads
// the full registry exactly as the satconj facade does, and the battery
// then auto-iterates whatever is registered: a future detector joins the
// differential net by registering itself, with no edits here.
package core_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	_ "repro/internal/legacy"
	"repro/internal/propagation"
)

// screenGrid screens sats with the registered grid detector, the reference
// of the batteries in this package.
func screenGrid(cfg core.Config, sats []propagation.Satellite) (*core.Result, error) {
	d, _ := core.Lookup(core.VariantGrid)
	return d.New(cfg).ScreenContext(context.Background(), sats)
}

// TestRegistryHasAllFamilies pins the full registry as seen through the
// blank import: every detector family, each constructible.
func TestRegistryHasAllFamilies(t *testing.T) {
	want := []core.Variant{core.VariantGrid, core.VariantHybrid, core.VariantLegacy}
	names := core.VariantNames()
	if len(names) != len(want) {
		t.Fatalf("registered variants = %v, want %v", names, want)
	}
	for i, w := range want {
		if names[i] != string(w) {
			t.Fatalf("registered variants = %v, want %v (sorted)", names, want)
		}
	}
	baselines := 0
	for _, d := range core.Variants() {
		if d.New == nil {
			t.Errorf("%s: nil constructor escaped Register", d.Name)
		}
		if d.Description == "" {
			t.Errorf("%s: empty description", d.Name)
		}
		if d.Baseline {
			baselines++
		}
	}
	if baselines != 1 {
		t.Errorf("baseline count = %d, want 1 (legacy)", baselines)
	}
}

// TestAllRegisteredVariantsAgreeWithGrid differentially screens the same
// seeded crossing-pair population with every registered detector and
// demands pairwise agreement with the grid reference: same conjunction
// pairs, TCAs within tolerance, and — for the sub-threshold events the
// reference resolves — PCAs within threshold slack. The PCA slack is a
// quarter of the threshold: the baselines bracket their refinements from
// coarser sampling, which can settle on a neighbouring local minimum a
// few hundred metres off without changing what was detected.
func TestAllRegisteredVariantsAgreeWithGrid(t *testing.T) {
	const (
		span      = 2400.0
		threshold = 2.0
		tcaTol    = 5.0
		pcaTol    = threshold / 4
	)
	sats := crossingPairsPopulation(11, span, 8)

	ref, err := screenGrid(core.Config{ThresholdKm: threshold, SecondsPerSample: 1, DurationSeconds: span, Workers: 2}, sats)
	if err != nil {
		t.Fatal(err)
	}
	refEvents := ref.Events(10)
	if len(refEvents) < 3 {
		t.Fatalf("reference found only %d events; population not dense enough", len(refEvents))
	}

	for _, d := range core.Variants() {
		d := d
		t.Run(string(d.Name), func(t *testing.T) {
			det := d.New(core.Config{ThresholdKm: threshold, DurationSeconds: span, Workers: 2})
			res, err := det.ScreenContext(context.Background(), sats)
			if err != nil {
				t.Fatal(err)
			}
			if res.Variant != d.Name {
				t.Errorf("result variant = %q, want %q", res.Variant, d.Name)
			}
			if res.Backend == "" {
				t.Error("result backend is empty")
			}
			events := res.Events(10)

			check := func(from, to []core.Conjunction, label string) {
				for _, w := range from {
					matched := false
					for _, g := range to {
						if g.A == w.A && g.B == w.B && math.Abs(g.TCA-w.TCA) <= tcaTol {
							matched = true
							if math.Abs(g.PCA-w.PCA) > pcaTol {
								t.Errorf("pair (%d,%d): PCA %.4f vs reference %.4f", w.A, w.B, g.PCA, w.PCA)
							}
							break
						}
					}
					if !matched {
						t.Errorf("%s: pair (%d,%d) tca=%.2f pca=%.4f", label, w.A, w.B, w.TCA, w.PCA)
					}
				}
			}
			check(refEvents, events, "missing vs grid reference")
			check(events, refEvents, "spurious vs grid reference")
		})
	}
}

// TestPhaseSequences pins the Observer phase contract (core.Phase) of every
// registered variant, on a full screen and, for the incremental ones, on a
// delta pass: grid reports allocate, sample, refine; hybrid adds filter
// before refine; legacy reports none. A variant registered without an entry
// here fails.
func TestPhaseSequences(t *testing.T) {
	want := map[core.Variant]string{
		core.VariantGrid:   "allocate sample refine",
		core.VariantHybrid: "allocate sample filter refine",
		core.VariantLegacy: "",
	}
	const span = 600.0
	sats := crossingPairsPopulation(3, span, 4)
	ctx := context.Background()
	for _, d := range core.Variants() {
		t.Run(string(d.Name), func(t *testing.T) {
			w, ok := want[d.Name]
			if !ok {
				t.Fatalf("no phase sequence pinned for %q", d.Name)
			}
			var got []string
			obs := core.ObserverFuncs{Phase: func(p core.PhaseInfo) { got = append(got, string(p.Phase)) }}
			det := d.New(core.Config{ThresholdKm: 2, DurationSeconds: span, Workers: 2, Observer: obs})
			if _, err := det.ScreenContext(ctx, sats); err != nil {
				t.Fatal(err)
			}
			if s := strings.Join(got, " "); s != w {
				t.Errorf("full screen: phases %q, want %q", s, w)
			}
			delta, ok := det.(core.DeltaDetector)
			if ok != d.Incremental {
				t.Fatalf("Incremental = %v, but the detector implements DeltaDetector: %v", d.Incremental, ok)
			}
			if !ok {
				return
			}
			got = nil
			if _, err := delta.ScreenDelta(ctx, sats, core.DeltaInput{Dirty: []int32{sats[0].ID}}); err != nil {
				t.Fatal(err)
			}
			if s := strings.Join(got, " "); s != w {
				t.Errorf("delta pass: phases %q, want %q", s, w)
			}
		})
	}
}
