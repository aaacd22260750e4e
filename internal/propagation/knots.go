package propagation

import (
	"repro/internal/kepler"
	"repro/internal/vec3"
)

// PerifocalWarm is StateWarm in s's perifocal frame: the position and the
// velocity as their components along P̂ and Q̂, and the solved eccentric
// anomaly. A two-body orbit stays in that plane, so two numbers describe each.
func (TwoBody) PerifocalWarm(s *Satellite, t, guess float64) (pos, vel [2]float64, ecc float64) {
	ecc, se, ce := kepler.SolveFromSincos(s.Elements.MeanAnomaly+s.meanMotion*t, s.ecc, guess)
	pos, vel = perifocalFromSincos(s, se, ce)
	return pos, vel, ecc
}

// FromPerifocal returns the ECI position of the point p of s's perifocal
// plane: p[0]·P̂ + p[1]·Q̂.
func (s *Satellite) FromPerifocal(p [2]float64) vec3.V {
	bp, bq := s.basisP, s.basisQ
	return vec3.V{
		X: p[0]*bp.X + p[1]*bq.X,
		Y: p[0]*bp.Y + p[1]*bq.Y,
		Z: p[0]*bp.Z + p[1]*bq.Z,
	}
}

// Knots is one satellite's cubic Hermite interpolant in its perifocal plane
// over a knot interval [t₀, t₀ + h]: the positions P0 and P1 at its knots,
// and each knot's tangent h·v less the chord P1 − P0. Those differences are
// O(h²·‖r̈‖), about a kilometre at LEO and h = 16 s where h·v is a hundred, so
// float32 keeps them to a tenth of a millimetre. 48 bytes.
type Knots struct {
	P0, P1 [2]float64
	D0, D1 [2]float32
}

// Start sets the interval between the knots (p0, w0) and (p1, w1), where w is
// h times the knot's velocity.
func (k *Knots) Start(p0, w0, p1, w1 [2]float64) {
	dx, dy := p1[0]-p0[0], p1[1]-p0[1]
	k.P0, k.P1 = p0, p1
	k.D0 = [2]float32{float32(w0[0] - dx), float32(w0[1] - dy)}
	k.D1 = [2]float32{float32(w1[0] - dx), float32(w1[1] - dy)}
}

// Next moves the interval on by h, to the knot (p, w): the second knot
// becomes the first, its tangent read back from D1.
func (k *Knots) Next(p, w [2]float64) {
	w1 := [2]float64{float64(k.D1[0]) + (k.P1[0] - k.P0[0]), float64(k.D1[1]) + (k.P1[1] - k.P0[1])}
	k.Start(k.P1, w1, p, w)
}

// At returns the interpolant at t₀ + u·h, u ∈ [0, 1]: the Hermite cubic with
// the chord split out, P0 + u·(P1 − P0) + u(1−u)·((1−u)·D0 − u·D1).
func (k *Knots) At(u float64) [2]float64 {
	v := 1 - u
	uv := u * v
	return [2]float64{
		k.P0[0] + u*(k.P1[0]-k.P0[0]) + uv*(v*float64(k.D0[0])-u*float64(k.D1[0])),
		k.P0[1] + u*(k.P1[1]-k.P0[1]) + uv*(v*float64(k.D0[1])-u*float64(k.D1[1])),
	}
}

// KnotState returns the ECI position and velocity of s at t₀ + u·h on its
// interpolant k, given 1/h: At(u), and the derivative in u over h,
// (P1 − P0 + (1−u)(1−3u)·D0 − u(2−3u)·D1)/h, which is w0/h at u = 0 and w1/h
// at u = 1.
func (s *Satellite) KnotState(k *Knots, u, invH float64) (pos, vel vec3.V) {
	v := 1 - u
	uv := u * v
	c0, c1 := (v-3*uv)*invH, (3*uv-u)*invH // (1−u)(1−3u)/h and u(2−3u)/h
	cx, cy := k.P1[0]-k.P0[0], k.P1[1]-k.P0[1]
	dx0, dy0, dx1, dy1 := float64(k.D0[0]), float64(k.D0[1]), float64(k.D1[0]), float64(k.D1[1])
	px, py := k.P0[0]+u*cx+uv*(v*dx0-u*dx1), k.P0[1]+u*cy+uv*(v*dy0-u*dy1) // At's expression
	wx, wy := cx*invH+c0*dx0-c1*dx1, cy*invH+c0*dy0-c1*dy1
	bp, bq := s.basisP, s.basisQ
	pos = vec3.V{X: px*bp.X + py*bq.X, Y: px*bp.Y + py*bq.Y, Z: px*bp.Z + py*bq.Z}
	vel = vec3.V{X: wx*bp.X + wy*bq.X, Y: wx*bp.Y + wy*bq.Y, Z: wx*bp.Z + wy*bq.Z}
	return pos, vel
}
