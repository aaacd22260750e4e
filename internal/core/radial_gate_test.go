package core

// The sweep's gate — its radial and its motion test (sweep.go) — and the reach
// rule (refineCandidates) against screens without them. The gate drops a
// (pair, step) only when no record can come of it, so a gated grid or hybrid
// screen returns the ungated one's conjunction list bit for bit; the reach
// rule drops only hybrid records that another step of the same encounter also
// makes, so encounters and pairs stay. The motion test's drops are also held
// to dense sampling of the window it claims them over.

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/lockfree"
	"repro/internal/mathx"
	"repro/internal/orbit"
	"repro/internal/pool"
	"repro/internal/population"
	"repro/internal/propagation"
	"repro/internal/vec3"
)

// gateCase is one population of the battery, the span it is screened over and
// its propagator (nil: two-body).
type gateCase struct {
	sats []propagation.Satellite
	span float64
	prop propagation.Propagator
}

// gatePopulations are the battery's populations: the catalogue-shaped KDE
// population at three seeds, the benchmark's debris cloud on a short span,
// Walker shells, and molniyaLEOPair; the last two also under J2, whose ṙ
// bound is scaled by (n + ΔṀ)/n.
func gatePopulations(t *testing.T) map[string]gateCase {
	t.Helper()
	cases := map[string]gateCase{}
	for seed := uint64(1); seed <= 3; seed++ {
		sats, err := population.Generate(population.Config{N: 4000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		cases["kde-4k-seed"+string(rune('0'+seed))] = gateCase{sats, 1200, nil}
	}
	debris, err := population.Fragmentation(population.FragmentationConfig{
		Parent:        orbit.Elements{SemiMajorAxis: 7100, Eccentricity: 0.001, Inclination: 1.7, RAAN: 1, ArgPerigee: 0.5, MeanAnomaly: 0.3},
		TimeOfBreakup: -6000, N: 1500, DeltaVKmS: 0.05, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases["debris-1500"] = gateCase{debris, 120, nil}
	cases["debris-600-j2"] = gateCase{debris[:600], 120, propagation.J2{}}
	var walker []propagation.Satellite
	for _, shell := range []population.WalkerConfig{
		{Planes: 24, PerPlane: 40, AltitudeKm: 550, InclinationRad: 0.93, PhasingSlots: 1},
		{Planes: 24, PerPlane: 40, AltitudeKm: 551, InclinationRad: 1.7, PhasingSlots: 1},
		{Planes: 24, PerPlane: 40, AltitudeKm: 560, InclinationRad: 0.93, PhasingSlots: 3},
	} {
		shell.FirstID = int32(len(walker))
		sats, err := population.Walker(shell)
		if err != nil {
			t.Fatal(err)
		}
		walker = append(walker, sats...)
	}
	cases["walker-3x960"] = gateCase{walker, 1200, nil}
	mol, leo := molniyaLEOPair(7)
	cases["molniya-leo"] = gateCase{[]propagation.Satellite{mol, leo}, 600, nil}
	cases["molniya-leo-j2"] = gateCase{[]propagation.Satellite{mol, leo}, 600, propagation.J2{}}
	return cases
}

// molniyaLEOPair is a Molniya orbit and a coplanar circular orbit of 1,500 km
// altitude that cross where the Molniya is 45° past perigee, its radius then
// changing at 3 km/s of its 4.3 km/s bound; both reach the crossing at one
// time, drawn from the seed with the plane. An encounter that fast radially
// makes records at steps two seconds from its TCA, where the radii differ by
// 6 km: more than d plus the ṙ bound times half a step, less than the gate.
func molniyaLEOPair(seed uint64) (mol, leo propagation.Satellite) {
	rng := mathx.NewSplitMix64(seed)
	tMeet := rng.UniformRange(250, 350)
	el := orbit.Elements{
		SemiMajorAxis: 26560, Eccentricity: 0.74, Inclination: 1.1065,
		RAAN: rng.UniformRange(0, mathx.TwoPi), ArgPerigee: rng.UniformRange(0, mathx.TwoPi),
	}
	const f = math.Pi / 4
	el.MeanAnomaly = mathx.NormalizeAngle(el.MeanFromEccentric(el.EccentricFromTrue(f)) - el.MeanMotion()*tMeet)
	circ := orbit.Elements{
		SemiMajorAxis: el.RadiusAtTrueAnomaly(f) + 0.5, Eccentricity: 0, Inclination: el.Inclination,
		RAAN: el.RAAN, ArgPerigee: mathx.NormalizeAngle(el.ArgPerigee + f),
	}
	circ.MeanAnomaly = mathx.NormalizeAngle(-circ.MeanMotion() * tMeet)
	return propagation.MustSatellite(1, el), propagation.MustSatellite(2, circ)
}

// screenAblated screens sats with variant under cfg and the given ablations.
func screenAblated(t *testing.T, variant Variant, cfg Config, ab ablation, sats []propagation.Satellite) *Result {
	t.Helper()
	cfg.ablation = ab
	d, ok := Lookup(variant)
	if !ok {
		t.Fatalf("no variant %q", variant)
	}
	res, err := d.New(cfg).ScreenContext(context.Background(), sats)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertSameBits fails unless got and want are the same list, field for field
// and bit for bit.
func assertSameBits(t *testing.T, name string, got, want []Conjunction) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d conjunctions, want %d", name, len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.A != w.A || g.B != w.B || g.Step != w.Step ||
			math.Float64bits(g.TCA) != math.Float64bits(w.TCA) || math.Float64bits(g.PCA) != math.Float64bits(w.PCA) {
			t.Fatalf("%s: conjunction %d is %+v, want %+v", name, i, g, w)
		}
	}
}

func TestRadialGateIsRecordExact(t *testing.T) {
	for name, pc := range gatePopulations(t) {
		for _, variant := range []Variant{VariantGrid, VariantHybrid} {
			t.Run(name+"/"+string(variant), func(t *testing.T) {
				cfg := Config{ThresholdKm: 2, DurationSeconds: pc.span, Workers: 2, Propagator: pc.prop}
				gated := screenAblated(t, variant, cfg, ablation{}, pc.sats)
				open := screenAblated(t, variant, cfg, ablation{noGate: true}, pc.sats)
				st := gated.Stats
				t.Logf("grid candidates %d, gate kept %d (motion test dropped %d); %d records", st.GridCandidates, st.CandidatePairs, st.MotionGated, len(gated.Conjunctions))
				assertSameBits(t, "gated vs ungated", gated.Conjunctions, open.Conjunctions)
				if st.GridCandidates != open.Stats.CandidatePairs || open.Stats.GridCandidates != open.Stats.CandidatePairs || open.Stats.MotionGated != 0 {
					t.Fatalf("grid candidates %d gated, %d ungated; the ungated screen kept %d, %d motion-gated",
						st.GridCandidates, open.Stats.GridCandidates, open.Stats.CandidatePairs, open.Stats.MotionGated)
				}
				pair := strings.HasPrefix(name, "molniya-leo") // two objects: the gate has nothing to drop
				if len(gated.Conjunctions) == 0 || !pair && st.CandidatePairs >= st.GridCandidates {
					t.Fatalf("vacuous: %d records, gate kept %d of %d", len(gated.Conjunctions), st.CandidatePairs, st.GridCandidates)
				}
				if name == "molniya-leo" {
					assertRDotDecisive(t, gated, pc.sats, cfg)
				}
				if variant != VariantHybrid {
					return
				}
				// Without the gate and the reach rule: the screen as it was
				// before both. Same encounters, same pairs.
				before := screenAblated(t, variant, cfg, ablation{noGate: true, noReachRule: true}, pc.sats)
				got, want := gated.Events(1), before.Events(1)
				t.Logf("records %d, %d without the reach rule; %d encounters", len(gated.Conjunctions), len(before.Conjunctions), len(want))
				if len(got) != len(want) || gated.UniquePairs() != before.UniquePairs() {
					t.Fatalf("%d encounters over %d pairs, %d over %d without the reach rule",
						len(got), gated.UniquePairs(), len(want), before.UniquePairs())
				}
				for i := range got {
					if got[i].A != want[i].A || got[i].B != want[i].B || math.Abs(got[i].TCA-want[i].TCA) > 1 {
						t.Fatalf("encounter %d is %+v, %+v without the reach rule", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// assertRDotDecisive finds, among the Molniya × LEO records, one flagged at a
// step more than half a step from its TCA whose radii at that step differ by
// more than d + (ṙ_a + ṙ_b)·s_ps/2: only the full ṙ·W pad keeps it.
func assertRDotDecisive(t *testing.T, res *Result, sats []propagation.Satellite, cfg Config) {
	t.Helper()
	sps := map[Variant]float64{VariantGrid: DefaultGridSeconds, VariantHybrid: DefaultHybridSeconds}[res.Variant]
	prop := propagation.TwoBody{}
	pad := cfg.ThresholdKm
	for i := range sats {
		rdot, _, _, _ := gateBounds(prop, &sats[i], gateSlack)
		pad += rdot * sps / 2
	}
	for _, c := range res.Conjunctions {
		ts := float64(c.Step) * sps
		pa, _ := prop.State(&sats[0], ts)
		pb, _ := prop.State(&sats[1], ts)
		if dr := math.Abs(pa.Norm() - pb.Norm()); math.Abs(c.TCA-ts) > sps/2 && dr > pad {
			t.Logf("record at step %d, %.2f s from its TCA: radii differ by %.2f km, half-step pad %.2f km", c.Step, c.TCA-ts, dr, pad)
			return
		}
	}
	t.Fatalf("no record at a step where the ṙ·W pad is decisive among %d", len(res.Conjunctions))
}

// sampledGridRun is a grid run over sats under cfg, sampled every
// cfg.SecondsPerSample, with every step sampled and the candidates collected
// into r.keys; radialOnly takes the motion test out of its gate.
func sampledGridRun(t *testing.T, cfg Config, sats []propagation.Satellite, radialOnly bool) *run {
	t.Helper()
	r, err := newRun(context.Background(), cfg, sats, cfg.SecondsPerSample, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.release)
	if radialOnly {
		r.gate.motion = nil
	}
	if err := r.sampleAllSteps(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestMotionTestSoundnessAgainstDenseSampling is the motion test's oracle, in
// the style of TestPrefilterSoundnessAgainstDenseSampling: every (pair, step)
// it drops — the candidates a radial-only gate keeps that the whole gate does
// not — must have its pair more than d_eff apart at 2,000 points across
// [t − W_ab, t + W_ab] ∩ [0, span]. The counters must account for every grid
// candidate: GridCandidates = CandidatePairs + radial drops + MotionGated.
func TestMotionTestSoundnessAgainstDenseSampling(t *testing.T) {
	debris := gatePopulations(t)["debris-1500"].sats
	kde, err := population.Generate(population.Config{N: 4000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The Molniya × LEO encounter, and the same LEO orbit 20 km higher: a
	// miss whose radii the Molniya's ṙ closes within its reach, so only the
	// motion test can drop it.
	mol, leo := molniyaLEOPair(7)
	el := leo.Elements
	el.SemiMajorAxis += 20
	high := propagation.MustSatellite(3, el)
	// Molniya × LEO misses also at 20 s steps: the Molniya's reach is then
	// minutes, over which the pairs' paths bend off their tangents by more
	// than the slack — only the bound's ½(a_A + a_B)·dt² sag covers that.
	for name, pc := range map[string]struct {
		sats      []propagation.Satellite
		span, sps float64
	}{
		"debris-200":         {debris[:200], 60, 1},
		"kde-4k":             {kde, 1200, 1},
		"molniya-leo":        {[]propagation.Satellite{mol, leo, high}, 600, 1},
		"molniya-leo-coarse": {molniyaMisses(), 600, 20},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{ThresholdKm: 2, SecondsPerSample: pc.sps, DurationSeconds: pc.span, Workers: 2, Pool: pool.New()}
			radial := sampledGridRun(t, cfg, pc.sats, true)
			r := sampledGridRun(t, cfg, pc.sats, false)
			st, rst := r.stats, radial.stats
			if rst.MotionGated != 0 || st.GridCandidates != rst.GridCandidates ||
				st.GridCandidates != st.CandidatePairs+(rst.GridCandidates-rst.CandidatePairs)+st.MotionGated {
				t.Fatalf("grid candidates %d = kept %d + radial drops %d + motion-gated %d does not add up (radial-only run: %+v)",
					st.GridCandidates, st.CandidatePairs, rst.GridCandidates-rst.CandidatePairs, st.MotionGated, rst)
			}
			var dropped []uint64
			kept := r.keys
			for _, k := range radial.keys {
				if len(kept) > 0 && kept[0] == k {
					kept = kept[1:]
				} else {
					dropped = append(dropped, k)
				}
			}
			if len(kept) != 0 || len(dropped) != st.MotionGated {
				t.Fatalf("%d kept candidates not among the radial test's; %d dropped, MotionGated %d", len(kept), len(dropped), st.MotionGated)
			}
			if len(dropped) == 0 {
				t.Fatal("vacuous: the motion test dropped nothing")
			}
			prop := propagation.TwoBody{}
			for _, k := range dropped {
				p := lockfree.UnpackPair(k)
				a, b := &r.sats[r.idx[p.A]], &r.sats[r.idx[p.B]]
				ts, w := float64(p.Step)*r.sps, max(r.reach(a), r.reach(b))
				lo, hi := max(ts-w, 0), min(ts+w, pc.span)
				dEff := r.pairThreshold(p.A, p.B)
				const n = 2000
				ea, eb := a.Elements.MeanAnomaly+a.MeanMotion()*lo, b.Elements.MeanAnomaly+b.MeanMotion()*lo
				for s := 0; s <= n; s++ {
					tt := lo + (hi-lo)*float64(s)/n
					var qa, qb vec3.V // warm solves from the previous sample's anomalies
					qa, ea = prop.PositionWarm(a, tt, ea)
					qb, eb = prop.PositionWarm(b, tt, eb)
					if d := qa.Dist(qb); d <= dEff {
						t.Fatalf("pair (%d, %d) dropped at step %d, but %.4f km apart at t = %.3f s (window [%.3f, %.3f], d_eff %.2f)",
							p.A, p.B, p.Step, d, tt, lo, hi, dEff)
					}
				}
			}
			t.Logf("%d grid candidates: %d radial drops, %d motion drops (all sampled), %d kept", st.GridCandidates, rst.GridCandidates-rst.CandidatePairs, st.MotionGated, st.CandidatePairs)
		})
	}
}

// molniyaMisses is molniyaLEOPair at six seeds, each LEO orbit 1.25–2.5 km
// above the crossing, so that it misses its Molniya by about 1–2 km.
func molniyaMisses() []propagation.Satellite {
	var sats []propagation.Satellite
	for seed := uint64(1); seed <= 6; seed++ {
		mol, leo := molniyaLEOPair(seed)
		el := leo.Elements
		el.SemiMajorAxis += 0.5 + 0.25*float64(seed)
		sats = append(sats, propagation.MustSatellite(int32(2*seed), mol.Elements), propagation.MustSatellite(int32(2*seed+1), el))
	}
	return sats
}
