package propagation

import (
	"math"
	"testing"

	"repro/internal/kepler"
	"repro/internal/mathx"
	"repro/internal/orbit"
)

// StateWarm must be indistinguishable from State at refinement tolerance —
// the detectors switch between the paths based on sampling mode, and the
// differential battery assumes both produce the same conjunctions.

func warmTestSatellite() Satellite {
	return MustSatellite(0, orbit.Elements{
		SemiMajorAxis: 7100,
		Eccentricity:  0.02,
		Inclination:   0.9,
		RAAN:          1.2,
		ArgPerigee:    0.4,
		MeanAnomaly:   2.2,
	})
}

func TestStateWarmTracksState(t *testing.T) {
	s := warmTestSatellite()
	p := TwoBody{}
	// Walk a sequential sampling schedule exactly as the detector does: each
	// step's solved E, advanced by ΔM, seeds the next step's guess.
	const sps = 1.0
	dm := s.MeanMotion() * sps
	guessE := s.Elements.MeanAnomaly - dm // first guess: E+ΔM = M itself
	for step := 0; step < 600; step++ {
		tSec := float64(step) * sps
		wantPos, wantVel := p.State(&s, tSec)
		pos, vel, ecc := p.StateWarm(&s, tSec, guessE+dm)
		guessE = ecc
		if d := pos.Sub(wantPos).Norm(); d > 1e-6 { // 1 mm in km units
			t.Fatalf("step %d: warm position off by %v km", step, d)
		}
		if d := vel.Sub(wantVel).Norm(); d > 1e-9 {
			t.Fatalf("step %d: warm velocity off by %v km/s", step, d)
		}
	}
}

func TestStateWarmColdGuess(t *testing.T) {
	// A nonsense guess must not degrade accuracy (SolveFrom falls back).
	s := warmTestSatellite()
	p := TwoBody{}
	wantPos, _ := p.State(&s, 1234.5)
	pos, _, _ := p.StateWarm(&s, 1234.5, 1e12)
	if d := pos.Sub(wantPos).Norm(); d > 1e-6 {
		t.Fatalf("cold-guess warm position off by %v km", d)
	}
}

func TestColdPropagatorsWarmIsState(t *testing.T) {
	// J2 and Numeric have no warm solve: StateWarm and PositionWarm are State,
	// bit for bit, and hand the guess back.
	s := warmTestSatellite()
	for _, p := range []Propagator{J2{}, Numeric{StepSeconds: 30}} {
		for _, tSec := range []float64{0, 300, 5400.5} {
			wantPos, wantVel := p.State(&s, tSec)
			pos, vel, ecc := p.StateWarm(&s, tSec, 1.25)
			ppos, pecc := p.PositionWarm(&s, tSec, 1.25)
			if pos != wantPos || vel != wantVel || ppos != wantPos || ecc != 1.25 || pecc != 1.25 { //lint:floateq-ok — same arithmetic, bit for bit
				t.Fatalf("%s t=%g: warm (%v, %v, %v / %v, %v), State (%v, %v)", p.Name(), tSec, pos, vel, ecc, ppos, pecc, wantPos, wantVel)
			}
		}
	}
}

// kernelDraws walks seeded (M₀, n, step) draws at eccentricity e through a
// sampling schedule exactly as the detector's build kernel does — a cold
// first step seeded with M itself, then warm steps guessed at E + n·s_ps —
// and hands every sample to check. A quarter of the draws start just below
// M = 2π, so their schedule crosses the wrap; every draw also repeats its
// last sample from a guess up to half a radian off, the only way to reach a
// long final Newton step.
func kernelDraws(e float64, draws int, check func(s *Satellite, tSec, guess float64)) {
	rng := mathx.NewSplitMix64(uint64(math.Float64bits(e)) ^ 0x5eed)
	for i := 0; i < draws; i++ {
		el := orbit.Elements{
			// Perigee above the surface whatever e is; n follows from a.
			SemiMajorAxis: rng.UniformRange(6600, 8000) / (1 - e),
			Eccentricity:  e,
			Inclination:   rng.UniformRange(0, math.Pi),
			RAAN:          rng.UniformRange(0, mathx.TwoPi),
			ArgPerigee:    rng.UniformRange(0, mathx.TwoPi),
			MeanAnomaly:   rng.UniformRange(0, mathx.TwoPi),
		}
		sps := rng.UniformRange(0.5, 60)
		if i%4 == 0 {
			el.MeanAnomaly = mathx.TwoPi - rng.UniformRange(0, 2)*el.MeanMotion()*sps
		}
		s := MustSatellite(int32(i), el)
		dm := s.MeanMotion() * sps
		ecc := el.MeanAnomaly - dm
		for step := 0; step < 4; step++ {
			tSec := float64(step) * sps
			guess := ecc + dm
			check(&s, tSec, guess)
			ecc = kepler.SolveFrom(el.MeanAnomaly+s.MeanMotion()*tSec, e, guess)
		}
		check(&s, 3*sps, ecc+rng.UniformRange(-0.5, 0.5))
	}
}

var kernelEccentricities = []float64{0, 1e-12, 1e-3, 0.1, 0.7, 0.95}

// solverSlack bounds how far two positions of s may sit apart merely because
// their eccentric anomalies came from different solvers: each stops at a
// 1e-13 Kepler residual, i.e. within 1e-13/(1−e) of the root, and |dr/dE| ≤ a.
func solverSlack(s *Satellite) float64 {
	return s.sma * 2e-13 / (1 - s.ecc)
}

// The build kernel's position comes from the sine and cosine the last Newton
// iterate produced, corrected for the final step — never from a sincos of
// the solved anomaly. It must still be the conic evaluated at the root
// SolveFrom returns, and agree with the cold State to the solvers' tolerance.
func TestPositionWarmMatchesState(t *testing.T) {
	p := TwoBody{}
	for _, e := range kernelEccentricities {
		var worstRoot, worstState float64
		kernelDraws(e, 10000, func(s *Satellite, tSec, guess float64) {
			pos, ecc := p.PositionWarm(s, tSec, guess)
			m := s.Elements.MeanAnomaly + s.MeanMotion()*tSec
			if want := kepler.SolveFrom(m, e, guess); math.Float64bits(ecc) != math.Float64bits(want) {
				t.Fatalf("e=%g t=%g: kernel E %v, SolveFrom %v", e, tSec, ecc, want)
			}
			if r := kepler.Residual(ecc, m, e); r > 1e-12 {
				t.Fatalf("e=%g t=%g: Kepler residual %g", e, tSec, r)
			}
			atRoot, _ := stateFromEccentric(s, ecc)
			worstRoot = math.Max(worstRoot, pos.Dist(atRoot))
			cold, _ := p.State(s, tSec)
			if d := pos.Dist(cold); !(d <= 1e-9+solverSlack(s)) {
				t.Fatalf("e=%g t=%g: kernel position %g km from State", e, tSec, d)
			}
			worstState = math.Max(worstState, pos.Dist(cold))
		})
		t.Logf("e=%g: worst |Δr| = %.3g km at the same root, %.3g km against State", e, worstRoot, worstState)
		if !(worstRoot <= 1e-9) {
			t.Errorf("e=%g: kernel position off by %g km", e, worstRoot)
		}
	}
}

// StateWarm builds position and velocity from the same triple.
func TestStateWarmVelocityMatchesState(t *testing.T) {
	p := TwoBody{}
	for _, e := range kernelEccentricities {
		var worst float64
		kernelDraws(e, 10000, func(s *Satellite, tSec, guess float64) {
			pos, vel, ecc := p.StateWarm(s, tSec, guess)
			if kpos, kecc := p.PositionWarm(s, tSec, guess); pos != kpos || ecc != kecc { //lint:floateq-ok — same arithmetic, bit for bit
				t.Fatalf("e=%g t=%g: StateWarm (%v, %v), PositionWarm (%v, %v)", e, tSec, pos, ecc, kpos, kecc)
			}
			_, atRoot := stateFromEccentric(s, ecc)
			worst = math.Max(worst, vel.Dist(atRoot))
			// v scales with n·a/(1−e) where r scales with a.
			_, cold := p.State(s, tSec)
			if d := vel.Dist(cold); !(d <= 1e-9+solverSlack(s)*s.MeanMotion()/(1-e)) {
				t.Fatalf("e=%g t=%g: warm velocity %g km/s from State", e, tSec, d)
			}
		})
		t.Logf("e=%g: worst |Δv| = %.3g km/s at the same root", e, worst)
		if !(worst <= 1e-9) {
			t.Errorf("e=%g: warm velocity off by %g km/s", e, worst)
		}
	}
}
