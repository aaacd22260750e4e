// Package propagation turns Keplerian elements into time-parameterised ECI
// states. It provides the two-body propagator the paper uses (Kepler
// propagation via the contour solver, §IV-B) plus a J2 secular propagator —
// the "other propagators" extension the paper's conclusion proposes.
//
// A Satellite carries the per-object precomputation the paper stores in
// device memory (the "Kepler solver data" a_k of §V-B): mean motion,
// semi-latus rectum, the perifocal basis in ECI, and the velocity scale.
// With those cached, a propagation step is one Kepler solve, one sincos and
// a handful of multiply-adds.
package propagation

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/kepler"
	"repro/internal/mathx"
	"repro/internal/orbit"
	"repro/internal/vec3"
)

// Satellite is one propagatable object (operational satellite or debris —
// the pipeline treats both identically, as the paper notes).
type Satellite struct {
	// ID is the object's catalogue identifier. IDs must be unique within a
	// population and fit in 20 bits (≤ ~1M objects) so that conjunction
	// pairs pack into a single machine word (lockfree.PackPair).
	ID int32
	// Elements are the orbital elements at epoch t = 0.
	Elements orbit.Elements

	// Precomputed quantities (filled by NewSatellite / Precompute).
	meanMotion float64 // n = √(μ/a³), rad/s
	slr        float64 // semi-latus rectum p, km
	ecc        float64 // eccentricity copy for cache locality
	vFac       float64 // √(μ/p), km/s
	sma        float64 // semi-major axis a, km
	smb        float64 // semi-minor axis b = a·√(1−e²), km
	velP       float64 // n·a², km²/s (P̂ velocity numerator)
	velQ       float64 // n·a·b, km²/s (Q̂ velocity numerator)
	basisP     vec3.V  // perifocal P̂ in ECI
	basisQ     vec3.V  // perifocal Q̂ in ECI
}

// NewSatellite validates el and returns a Satellite with its propagation
// cache filled.
func NewSatellite(id int32, el orbit.Elements) (Satellite, error) {
	if err := el.Validate(); err != nil {
		return Satellite{}, fmt.Errorf("satellite %d: %w", id, err)
	}
	if id < 0 {
		return Satellite{}, fmt.Errorf("satellite id %d must be non-negative", id)
	}
	s := Satellite{ID: id, Elements: el}
	s.Precompute()
	return s, nil
}

// MustSatellite is NewSatellite that panics on invalid elements; intended
// for tests and examples with hand-written orbits.
func MustSatellite(id int32, el orbit.Elements) Satellite {
	s, err := NewSatellite(id, el)
	if err != nil {
		panic(err)
	}
	return s
}

// Precompute refreshes the cached derived quantities after Elements change.
func (s *Satellite) Precompute() {
	el := s.Elements
	s.meanMotion = el.MeanMotion()
	s.slr = el.SemiLatusRectum()
	s.ecc = el.Eccentricity
	s.vFac = math.Sqrt(orbit.MuEarth / s.slr)
	s.sma = el.SemiMajorAxis
	s.smb = el.SemiMajorAxis * math.Sqrt(1-el.Eccentricity*el.Eccentricity)
	s.velP = s.meanMotion * s.sma * s.sma
	s.velQ = s.meanMotion * s.sma * s.smb
	s.basisP, s.basisQ = el.Basis()
}

// MeanMotion returns the cached mean motion in rad/s.
func (s *Satellite) MeanMotion() float64 { return s.meanMotion }

// Period returns the orbital period in seconds.
func (s *Satellite) Period() float64 { return mathx.TwoPi / s.meanMotion }

// Propagator computes the ECI state of a satellite at time t (seconds from
// epoch). Implementations must be safe for concurrent use.
type Propagator interface {
	// State returns position (km) and velocity (km/s) at time t.
	State(s *Satellite, t float64) (pos, vel vec3.V)
	// StateWarm is State with the Kepler solve warm-started: guess predicts
	// the eccentric anomaly at t (any finite value is safe — a cold guess
	// falls back to the full solver). It returns the state plus the solved
	// eccentric anomaly, which seeds the next sample's guess. A propagator
	// without a warm solve returns State and the guess unchanged.
	StateWarm(s *Satellite, t, guess float64) (pos, vel vec3.V, ecc float64)
	// PositionWarm is StateWarm without the velocity — all a sampling step
	// needs to bin an object into its grid cell.
	PositionWarm(s *Satellite, t, guess float64) (pos vec3.V, ecc float64)
	// Name identifies the propagator in reports.
	Name() string
}

// KeplerCache carries one satellite's warm-start state across consecutive
// sampling steps: the eccentric anomaly solved at the previous sample and
// the advance predicted to the next one. The detectors keep one entry per
// satellite (pooled alongside the state buffers) and predict the next
// sample's root as E + DeltaE, which a Newton iteration or two polishes —
// instead of a cold contour solve per satellite per step. DeltaE is seeded
// with the mean-anomaly advance n·s_ps; a sampler may then replace it with
// the advance it last observed, E_k − E_{k−1}, which tracks the root e·ΔM
// closer than the constant.
type KeplerCache struct {
	E      float64 // eccentric anomaly at the previous sample (rad)
	DeltaE float64 // predicted eccentric-anomaly advance to the next sample (rad)
}

// TwoBody is unperturbed Keplerian propagation: M(t) = M₀ + n·t, E from the
// contour solver (kepler.Default), then the cached perifocal basis gives the
// state.
type TwoBody struct{}

// Name implements Propagator.
func (TwoBody) Name() string { return "two-body" }

// State implements Propagator.
func (TwoBody) State(s *Satellite, t float64) (pos, vel vec3.V) {
	m := s.Elements.MeanAnomaly + s.meanMotion*t
	return stateFromEccentric(s, kepler.Default().Solve(m, s.ecc))
}

// StateWarm implements Propagator. The warm solve hands back the sin E and
// cos E its last Newton iterate produced, so a warm object-step costs one
// sincos in total.
func (TwoBody) StateWarm(s *Satellite, t, guess float64) (pos, vel vec3.V, ecc float64) {
	ecc, se, ce := kepler.SolveFromSincos(s.Elements.MeanAnomaly+s.meanMotion*t, s.ecc, guess)
	pos, vel = stateFromSincos(s, se, ce)
	return pos, vel, ecc
}

// PositionWarm implements Propagator.
func (TwoBody) PositionWarm(s *Satellite, t, guess float64) (pos vec3.V, ecc float64) {
	ecc, se, ce := kepler.SolveFromSincos(s.Elements.MeanAnomaly+s.meanMotion*t, s.ecc, guess)
	return positionFromSincos(s, se, ce), ecc
}

// stateFromEccentric evaluates the conic directly at eccentric anomaly E
// using the cached perifocal basis:
//
//	r⃗ = a(cos E − e)·P̂ + b·sin E·Q̂          b = a√(1−e²)
//	v⃗ = (n·a/(1 − e·cos E))·(−a·sin E·P̂ + b·cos E·Q̂)
//
// Working in E skips the conversion to true anomaly entirely — no atan2, no
// second sincos — which matters because this sits inside the per-satellite
// per-step propagation loop. Algebraically identical to stateFromTrue (both
// are the standard conic parameterisations); they differ only in roundoff.
func stateFromEccentric(s *Satellite, ecc float64) (pos, vel vec3.V) {
	se, ce := math.Sincos(ecc)
	return stateFromSincos(s, se, ce)
}

// positionFromSincos is the position half of stateFromEccentric, from sin E
// and cos E.
func positionFromSincos(s *Satellite, se, ce float64) vec3.V {
	rp := s.sma * (ce - s.ecc) // position component along P̂
	rq := s.smb * se           // position component along Q̂
	bp, bq := s.basisP, s.basisQ
	return vec3.V{
		X: rp*bp.X + rq*bq.X,
		Y: rp*bp.Y + rq*bq.Y,
		Z: rp*bp.Z + rq*bq.Z,
	}
}

// stateFromSincos is stateFromEccentric from sin E and cos E.
func stateFromSincos(s *Satellite, se, ce float64) (pos, vel vec3.V) {
	inv := 1 / (s.sma * (1 - s.ecc*ce))
	vp := -s.velP * se * inv
	vq := s.velQ * ce * inv
	bp, bq := s.basisP, s.basisQ
	vel = vec3.V{
		X: vp*bp.X + vq*bq.X,
		Y: vp*bp.Y + vq*bq.Y,
		Z: vp*bp.Z + vq*bq.Z,
	}
	return positionFromSincos(s, se, ce), vel
}

// stateFromTrue evaluates the conic at true anomaly f with basis (bp, bq).
func stateFromTrue(s *Satellite, f float64, bp, bq vec3.V) (pos, vel vec3.V) {
	sf, cf := math.Sincos(f)
	r := s.slr / (1 + s.ecc*cf)
	pos = vec3.V{
		X: r * (cf*bp.X + sf*bq.X),
		Y: r * (cf*bp.Y + sf*bq.Y),
		Z: r * (cf*bp.Z + sf*bq.Z),
	}
	vel = vec3.V{
		X: s.vFac * (-sf*bp.X + (s.ecc+cf)*bq.X),
		Y: s.vFac * (-sf*bp.Y + (s.ecc+cf)*bq.Y),
		Z: s.vFac * (-sf*bp.Z + (s.ecc+cf)*bq.Z),
	}
	return pos, vel
}

// J2 propagates with the secular first-order J2 perturbation: the node,
// perigee and mean anomaly drift linearly at the standard rates
//
//	Ω̇ = −(3/2)·n·J2·(Re/p)²·cos i
//	ω̇ = +(3/4)·n·J2·(Re/p)²·(5cos²i − 1)
//	Ṁ += (3/4)·n·J2·(Re/p)²·√(1−e²)·(3cos²i − 1)
//
// Because Ω and ω drift, the perifocal basis must be rebuilt per call, which
// makes J2 noticeably slower than TwoBody — the time/accuracy trade the
// paper's conclusion anticipates when swapping propagators.
type J2 struct{}

// Name implements Propagator.
func (J2) Name() string { return "j2-secular" }

// Rates returns the secular drift rates (Ω̇, ω̇, ΔṀ) in rad/s for s.
func (J2) Rates(s *Satellite) (raanDot, argpDot, extraMeanDot float64) {
	el := s.Elements
	ci := math.Cos(el.Inclination)
	rp := orbit.EarthRadius / s.slr
	k := s.meanMotion * orbit.J2 * rp * rp
	raanDot = -1.5 * k * ci
	argpDot = 0.75 * k * (5*ci*ci - 1)
	extraMeanDot = 0.75 * k * math.Sqrt(1-el.Eccentricity*el.Eccentricity) * (3*ci*ci - 1)
	return raanDot, argpDot, extraMeanDot
}

// State implements Propagator.
func (p J2) State(s *Satellite, t float64) (pos, vel vec3.V) {
	raanDot, argpDot, extraMeanDot := p.Rates(s)
	el := s.Elements
	el.RAAN = mathx.NormalizeAngle(el.RAAN + raanDot*t)
	el.ArgPerigee = mathx.NormalizeAngle(el.ArgPerigee + argpDot*t)
	m := s.Elements.MeanAnomaly + (s.meanMotion+extraMeanDot)*t
	f := el.TrueFromEccentric(kepler.Default().Solve(m, s.ecc))
	bp, bq := el.Basis()
	return stateFromTrue(s, f, bp, bq)
}

// StateWarm implements Propagator with a cold solve: State, and the guess back.
func (p J2) StateWarm(s *Satellite, t, guess float64) (pos, vel vec3.V, ecc float64) {
	pos, vel = p.State(s, t)
	return pos, vel, guess
}

// PositionWarm implements Propagator with a cold solve, like StateWarm.
func (p J2) PositionWarm(s *Satellite, t, guess float64) (pos vec3.V, ecc float64) {
	pos, _ = p.State(s, t)
	return pos, guess
}

// State is a propagated snapshot of one satellite.
type State struct {
	Pos vec3.V
	Vel vec3.V
}

// PropagateAll computes the state of every satellite at time t in parallel
// using the given worker count (≤0 selects GOMAXPROCS) and stores results
// into out, which must have len(out) == len(sats). This is the paper's
// "parallel propagation of the satellite positions" step with one goroutine
// per CPU worker instead of one CUDA thread per tuple.
func PropagateAll(prop Propagator, sats []Satellite, t float64, workers int, out []State) {
	if len(out) != len(sats) {
		panic(fmt.Sprintf("propagation: out length %d != satellites %d", len(out), len(sats)))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(sats) {
		workers = len(sats)
	}
	if workers <= 1 {
		for i := range sats {
			out[i].Pos, out[i].Vel = prop.State(&sats[i], t)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (len(sats) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(sats) {
			hi = len(sats)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i].Pos, out[i].Vel = prop.State(&sats[i], t)
			}
		}(lo, hi)
	}
	wg.Wait()
}
