// The debris oracle runs from the external test package so that legacy, which
// imports core, can be screened beside grid and hybrid (registry_battery_test.go).
package core_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/brent"
	"repro/internal/core"
	"repro/internal/orbit"
	"repro/internal/population"
	"repro/internal/propagation"
)

// TestDetectorsAgainstDenseOracleOnDebris screens a 300-object fragmentation
// cloud — slow, co-moving pairs that stay within a few km for minutes, where
// each encounter used to come back as dozens of records — and holds grid and
// hybrid to a dense-sampling oracle: every local minimum of a pair's
// separation below d is exactly one record, and every record is such a
// minimum. The oracle samples every pair each second, keeps the pairs whose
// samples come within d plus half a step of their relative speed, and
// samples those every 50 ms. It logs how many minima legacy misses.
func TestDetectorsAgainstDenseOracleOnDebris(t *testing.T) {
	const span, d, dt = 600.0, 2.0, 0.05
	parent := orbit.Elements{SemiMajorAxis: 7100, Eccentricity: 0.001, Inclination: 1.7, RAAN: 1.0, ArgPerigee: 0.5, MeanAnomaly: 0.3}
	sats, err := population.Fragmentation(population.FragmentationConfig{Parent: parent, TimeOfBreakup: -6000, N: 300, DeltaVKmS: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	prop := propagation.TwoBody{}
	type pv struct{ p, v [3]float64 }
	steps := int(span) + 1
	states := make([][]pv, steps)
	for k := range states {
		states[k] = make([]pv, len(sats))
		for i := range sats {
			p, v := prop.State(&sats[i], float64(k))
			states[k][i] = pv{[3]float64{p.X, p.Y, p.Z}, [3]float64{v.X, v.Y, v.Z}}
		}
	}
	norm := func(a, b [3]float64) float64 {
		x, y, z := a[0]-b[0], a[1]-b[1], a[2]-b[2]
		return math.Sqrt(x*x + y*y + z*z)
	}
	type minimum struct {
		a, b   int32
		t, pca float64
	}
	var oracle []minimum
	for i := range sats {
		for j := i + 1; j < len(sats); j++ {
			close := false
			for k := 0; k < steps && !close; k++ {
				s, r := states[k][i], states[k][j]
				close = norm(s.p, r.p) <= d+0.6*norm(s.v, r.v)+0.01
			}
			if !close {
				continue
			}
			a, b := &sats[i], &sats[j]
			for _, m := range denseMinimaBelow(prop, a, b, span, dt, d) {
				oracle = append(oracle, minimum{min(a.ID, b.ID), max(a.ID, b.ID), m[0], m[1]})
			}
		}
	}
	if len(oracle) < 10 {
		t.Fatalf("vacuous: %d minima below d", len(oracle))
	}
	for _, v := range []core.Variant{core.VariantGrid, core.VariantHybrid, core.VariantLegacy} {
		desc, _ := core.Lookup(v)
		res, err := desc.New(core.Config{ThresholdKm: d, DurationSeconds: span, Workers: 2}).ScreenContext(context.Background(), sats)
		if err != nil {
			t.Fatal(err)
		}
		used := make([]int, len(res.Conjunctions))
		missed := 0
		for _, m := range oracle {
			hits := 0
			for i, c := range res.Conjunctions {
				if c.A == m.a && c.B == m.b && math.Abs(c.TCA-m.t) <= 2*dt+1e-3 {
					hits++
					used[i]++
				}
			}
			switch {
			case v == core.VariantLegacy:
				missed += min(hits, 1) ^ 1
			case hits != 1 && math.Abs(m.pca-d) > 1e-6:
				t.Errorf("%s: minimum of (%d, %d) at t = %.3f s, %.6f km: %d records", v, m.a, m.b, m.t, m.pca, hits)
			}
		}
		if v == core.VariantLegacy {
			t.Logf("legacy: %d records, misses %d of %d minima below d", len(res.Conjunctions), missed, len(oracle))
			continue
		}
		for i, c := range res.Conjunctions {
			if used[i] == 0 && math.Abs(c.PCA-d) > 1e-6 {
				t.Errorf("%s: record %+v is no dense minimum", v, c)
			}
		}
		t.Logf("%s: %d records for %d minima below d", v, len(res.Conjunctions), len(oracle))
	}
}

// denseMinimaBelow returns (t, separation) of each local minimum of a's and
// b's separation below d, sampled every dt over [0, span] and polished by
// Brent; the span's ends count when the separation rises away from them.
func denseMinimaBelow(prop propagation.Propagator, a, b *propagation.Satellite, span, dt, d float64) [][2]float64 {
	f := func(t float64) float64 {
		pa, _ := prop.State(a, t)
		pb, _ := prop.State(b, t)
		return pa.Dist2(pb)
	}
	n := int(math.Ceil(span / dt))
	at := func(s int) float64 { return min(float64(s)*dt, span) }
	sep := make([]float64, n+1)
	for s := range sep {
		sep[s] = f(at(s))
	}
	var out [][2]float64
	for s := 0; s <= n; s++ {
		if (s > 0 && sep[s] >= sep[s-1]) || (s < n && sep[s] > sep[s+1]) {
			continue
		}
		tm, f2 := at(s), sep[s]
		if s > 0 && s < n {
			res, _ := brent.Minimize(f, at(s-1), at(s+1), 1e-7, 200)
			tm, f2 = res.X, res.F
		}
		if math.Sqrt(f2) <= d {
			out = append(out, [2]float64{tm, math.Sqrt(f2)})
		}
	}
	return out
}
