package propagation

// Numerical propagation — the "other propagators" extension the paper's
// conclusion proposes ("exchanging parts of the algorithm, like … other
// propagators instead of the Kepler Contour solver"). A classical
// fixed-step RK4 integrator over a configurable force model: point-mass
// gravity, the full (non-averaged) J2 acceleration, and a cannonball drag
// model with an exponential atmosphere.
//
// The numeric propagator is orders of magnitude more expensive per state
// than the closed-form Kepler path (it integrates from epoch on every
// call), so the detectors keep using TwoBody/J2; Numeric exists for
// validation (its trajectories cross-check the analytic propagators in the
// tests) and for short-span, high-fidelity screening of small populations.

import (
	"fmt"
	"math"

	"repro/internal/kepler"
	"repro/internal/orbit"
	"repro/internal/vec3"
)

// Force evaluates an acceleration (km/s²) at a given state and time.
type Force interface {
	Accel(pos, vel vec3.V, t float64) vec3.V
	Name() string
}

// PointMass is unperturbed central-body gravity: a = −μ·r/|r|³.
type PointMass struct{}

// Name implements Force.
func (PointMass) Name() string { return "point-mass" }

// Accel implements Force.
func (PointMass) Accel(pos, _ vec3.V, _ float64) vec3.V {
	r2 := pos.Norm2()
	r := math.Sqrt(r2)
	if r == 0 { //lint:floateq-ok — guard before division by r
		return vec3.Zero
	}
	return pos.Scale(-orbit.MuEarth / (r2 * r))
}

// J2Force is the full first-order oblateness acceleration (not the secular
// average the J2 propagator applies):
//
//	a = −(3/2)·J2·μ·Re²/r⁵ · [ x(1−5z²/r²), y(1−5z²/r²), z(3−5z²/r²) ]
type J2Force struct{}

// Name implements Force.
func (J2Force) Name() string { return "j2-full" }

// Accel implements Force.
func (J2Force) Accel(pos, _ vec3.V, _ float64) vec3.V {
	r2 := pos.Norm2()
	if r2 == 0 { //lint:floateq-ok — guard before division by r2
		return vec3.Zero
	}
	r := math.Sqrt(r2)
	k := -1.5 * orbit.J2 * orbit.MuEarth * orbit.EarthRadius * orbit.EarthRadius / (r2 * r2 * r)
	z2r2 := pos.Z * pos.Z / r2
	return vec3.V{
		X: k * pos.X * (1 - 5*z2r2),
		Y: k * pos.Y * (1 - 5*z2r2),
		Z: k * pos.Z * (3 - 5*z2r2),
	}
}

// Drag is a cannonball atmospheric drag model over a simple exponential
// atmosphere: a = −½·ρ(h)·(Cd·A/m)·|v|·v (atmosphere co-rotation ignored;
// adequate for screening-scale fidelity).
type Drag struct {
	// CdAOverM is the ballistic parameter Cd·A/m in m²/kg. A typical
	// defunct payload is ~0.01–0.05.
	CdAOverM float64
	// RefDensityKgM3 is the density at RefAltitudeKm (default: 500 km,
	// 6.97e-13 kg/m³ — a mean-activity value).
	RefDensityKgM3 float64
	// RefAltitudeKm and ScaleHeightKm parameterise the exponential
	// profile ρ(h) = ρ₀·exp(−(h−h₀)/H); defaults 500 km and 63 km.
	RefAltitudeKm float64
	ScaleHeightKm float64
}

// Name implements Force.
func (Drag) Name() string { return "drag-exp" }

// Accel implements Force.
func (d Drag) Accel(pos, vel vec3.V, _ float64) vec3.V {
	rho0 := d.RefDensityKgM3
	if rho0 <= 0 {
		rho0 = 6.97e-13
	}
	h0 := d.RefAltitudeKm
	if h0 <= 0 {
		h0 = 500
	}
	scale := d.ScaleHeightKm
	if scale <= 0 {
		scale = 63
	}
	h := pos.Norm() - orbit.EarthRadius
	rho := rho0 * math.Exp(-(h-h0)/scale) // kg/m³
	v := vel.Norm()                       // km/s
	if v == 0 {                           //lint:floateq-ok — guard before division by v
		return vec3.Zero
	}
	// a [km/s²] = −½·ρ[kg/m³]·(CdA/m)[m²/kg]·v²[km²/s²]·1000 [m/km] · v̂
	mag := 0.5 * rho * d.CdAOverM * v * v * 1000
	return vel.Scale(-mag / v)
}

// Numeric integrates the configured forces with fixed-step RK4. It
// implements Propagator by integrating from the epoch elements to the
// requested time on each call (O(|t|/StepSeconds) per call — see the
// package note above).
type Numeric struct {
	// Forces is the acceleration model; empty selects {PointMass{}}.
	Forces []Force
	// StepSeconds is the RK4 step; 0 selects 10 s (≈600 steps per LEO
	// orbit, position error ≪ 1 m over a day for two-body motion).
	StepSeconds float64
}

// Name implements Propagator.
func (n Numeric) Name() string {
	return fmt.Sprintf("numeric-rk4(%d forces)", len(n.forces()))
}

func (n Numeric) forces() []Force {
	if len(n.Forces) == 0 {
		return []Force{PointMass{}}
	}
	return n.Forces
}

func (n Numeric) step() float64 {
	if n.StepSeconds <= 0 {
		return 10
	}
	return n.StepSeconds
}

// accel sums the force model.
func (n Numeric) accel(pos, vel vec3.V, t float64) vec3.V {
	var a vec3.V
	for _, f := range n.forces() {
		a = a.Add(f.Accel(pos, vel, t))
	}
	return a
}

// State implements Propagator.
func (n Numeric) State(s *Satellite, t float64) (pos, vel vec3.V) {
	// Initial state from the epoch elements.
	ecc := kepler.Default().Solve(s.Elements.MeanAnomaly, s.Elements.Eccentricity)
	f := s.Elements.TrueFromEccentric(ecc)
	pos, vel = s.Elements.StateAtTrueAnomalyBasis(f, s.basisP, s.basisQ)
	if t == 0 { //lint:floateq-ok — exact epoch fast path
		return pos, vel
	}
	h := n.step()
	if t < 0 {
		h = -h
	}
	remaining := t
	for math.Abs(remaining) > 1e-12 {
		dt := h
		if math.Abs(remaining) < math.Abs(h) {
			dt = remaining
		}
		pos, vel = n.rk4(pos, vel, t-remaining, dt)
		remaining -= dt
	}
	return pos, vel
}

// StateWarm implements Propagator: State, and the guess back.
func (n Numeric) StateWarm(s *Satellite, t, guess float64) (pos, vel vec3.V, ecc float64) {
	pos, vel = n.State(s, t)
	return pos, vel, guess
}

// PositionWarm implements Propagator: State's position, and the guess back.
func (n Numeric) PositionWarm(s *Satellite, t, guess float64) (pos vec3.V, ecc float64) {
	pos, _ = n.State(s, t)
	return pos, guess
}

// rk4 advances one step.
func (n Numeric) rk4(pos, vel vec3.V, t, dt float64) (vec3.V, vec3.V) {
	k1v := n.accel(pos, vel, t)
	k1r := vel

	p2 := pos.Add(k1r.Scale(dt / 2))
	v2 := vel.Add(k1v.Scale(dt / 2))
	k2v := n.accel(p2, v2, t+dt/2)
	k2r := v2

	p3 := pos.Add(k2r.Scale(dt / 2))
	v3 := vel.Add(k2v.Scale(dt / 2))
	k3v := n.accel(p3, v3, t+dt/2)
	k3r := v3

	p4 := pos.Add(k3r.Scale(dt))
	v4 := vel.Add(k3v.Scale(dt))
	k4v := n.accel(p4, v4, t+dt)
	k4r := v4

	pos = pos.Add(k1r.Add(k2r.Scale(2)).Add(k3r.Scale(2)).Add(k4r).Scale(dt / 6))
	vel = vel.Add(k1v.Add(k2v.Scale(2)).Add(k3v.Scale(2)).Add(k4v).Scale(dt / 6))
	return pos, vel
}
