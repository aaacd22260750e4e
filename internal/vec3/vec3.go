// Package vec3 provides three-dimensional vector algebra over float64.
//
// All positions in this repository are geocentric Cartesian coordinates in
// kilometres and all velocities are in kilometres per second; vec3 itself is
// unit-agnostic. The type is a plain value (three float64 words) so it can be
// embedded into the preallocated, lock-free satellite entry arrays used by
// the spatial grid without indirection.
package vec3

import (
	"fmt"
	"math"
)

// V is a three-dimensional vector.
type V struct {
	X, Y, Z float64
}

// New returns the vector (x, y, z).
func New(x, y, z float64) V { return V{X: x, Y: y, Z: z} }

// Zero is the zero vector.
var Zero = V{}

// Add returns v + w.
func (v V) Add(w V) V { return V{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v V) Sub(w V) V { return V{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s·v.
func (v V) Scale(s float64) V { return V{s * v.X, s * v.Y, s * v.Z} }

// Neg returns -v.
func (v V) Neg() V { return V{-v.X, -v.Y, -v.Z} }

// Dot returns the scalar product v·w.
func (v V) Dot(w V) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the vector product v×w.
func (v V) Cross(w V) V {
	return V{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length |v|.
func (v V) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns the squared Euclidean length v·v. It avoids the square root
// and is preferred in distance comparisons on hot paths.
func (v V) Norm2() float64 { return v.Dot(v) }

// Dist returns |v - w|.
func (v V) Dist(w V) float64 { return v.Sub(w).Norm() }

// Dist2 returns |v - w|².
func (v V) Dist2(w V) float64 { return v.Sub(w).Norm2() }

// Unit returns v / |v|. It returns the zero vector when |v| == 0 so that
// callers operating on degenerate geometry (e.g. an exactly radial node
// line) get a harmless result instead of NaNs.
func (v V) Unit() V {
	n := v.Norm()
	if n == 0 { //lint:floateq-ok — zero-vector guard
		return Zero
	}
	return v.Scale(1 / n)
}

// Angle returns the angle between v and w in radians, in [0, π].
// It is numerically robust near 0 and π (atan2 formulation rather than
// acos of a dot product).
func (v V) Angle(w V) float64 {
	return math.Atan2(v.Cross(w).Norm(), v.Dot(w))
}

// String implements fmt.Stringer.
func (v V) String() string {
	return fmt.Sprintf("(%g, %g, %g)", v.X, v.Y, v.Z)
}

// RotZ rotates v about the +Z axis by angle a (radians, right-handed).
func (v V) RotZ(a float64) V {
	s, c := math.Sincos(a)
	return V{c*v.X - s*v.Y, s*v.X + c*v.Y, v.Z}
}

// RotX rotates v about the +X axis by angle a (radians, right-handed).
func (v V) RotX(a float64) V {
	s, c := math.Sincos(a)
	return V{v.X, c*v.Y - s*v.Z, s*v.Y + c*v.Z}
}
