package vec3

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-12

func almost(a, b float64) bool {
	return math.Abs(a-b) <= eps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func vecAlmost(a, b V) bool { return almost(a.X, b.X) && almost(a.Y, b.Y) && almost(a.Z, b.Z) }

func TestAddSub(t *testing.T) {
	a := New(1, 2, 3)
	b := New(-4, 5, 0.5)
	if got := a.Add(b); !vecAlmost(got, New(-3, 7, 3.5)) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); !vecAlmost(got, New(5, -3, 2.5)) {
		t.Errorf("Sub = %v", got)
	}
}

func TestScaleNeg(t *testing.T) {
	a := New(1, -2, 3)
	if got := a.Scale(2); !vecAlmost(got, New(2, -4, 6)) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Neg(); !vecAlmost(got, New(-1, 2, -3)) {
		t.Errorf("Neg = %v", got)
	}
}

func TestDotCross(t *testing.T) {
	x := New(1, 0, 0)
	y := New(0, 1, 0)
	z := New(0, 0, 1)
	if got := x.Cross(y); !vecAlmost(got, z) {
		t.Errorf("x×y = %v, want z", got)
	}
	if got := y.Cross(z); !vecAlmost(got, x) {
		t.Errorf("y×z = %v, want x", got)
	}
	if got := z.Cross(x); !vecAlmost(got, y) {
		t.Errorf("z×x = %v, want y", got)
	}
	if got := x.Dot(y); got != 0 {
		t.Errorf("x·y = %v, want 0", got)
	}
}

func TestNormDist(t *testing.T) {
	v := New(3, 4, 12)
	if got := v.Norm(); !almost(got, 13) {
		t.Errorf("Norm = %v, want 13", got)
	}
	if got := v.Norm2(); !almost(got, 169) {
		t.Errorf("Norm2 = %v, want 169", got)
	}
	if got := New(1, 1, 1).Dist(New(2, 2, 2)); !almost(got, math.Sqrt(3)) {
		t.Errorf("Dist = %v", got)
	}
}

func TestUnit(t *testing.T) {
	v := New(0, 3, 4)
	u := v.Unit()
	if !almost(u.Norm(), 1) {
		t.Errorf("|Unit| = %v, want 1", u.Norm())
	}
	if got := Zero.Unit(); got != Zero {
		t.Errorf("Unit(0) = %v, want 0", got)
	}
}

func TestAngle(t *testing.T) {
	cases := []struct {
		a, b V
		want float64
	}{
		{New(1, 0, 0), New(0, 1, 0), math.Pi / 2},
		{New(1, 0, 0), New(1, 0, 0), 0},
		{New(1, 0, 0), New(-1, 0, 0), math.Pi},
		{New(1, 1, 0), New(1, 0, 0), math.Pi / 4},
	}
	for _, c := range cases {
		if got := c.a.Angle(c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Angle(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAngleNearParallelStable(t *testing.T) {
	// acos-based angle formulas lose all precision here; the atan2 form must not.
	a := New(1, 0, 0)
	b := New(1, 1e-9, 0)
	got := a.Angle(b)
	if math.Abs(got-1e-9) > 1e-15 {
		t.Errorf("Angle near-parallel = %v, want ~1e-9", got)
	}
}

func TestRotations(t *testing.T) {
	x := New(1, 0, 0)
	if got := x.RotZ(math.Pi / 2); !vecAlmost(got, New(0, 1, 0)) {
		t.Errorf("RotZ(π/2)x = %v, want y", got)
	}
	y := New(0, 1, 0)
	if got := y.RotX(math.Pi / 2); !vecAlmost(got, New(0, 0, 1)) {
		t.Errorf("RotX(π/2)y = %v, want z", got)
	}
}

func TestString(t *testing.T) {
	if got := New(1, 2.5, -3).String(); got != "(1, 2.5, -3)" {
		t.Errorf("String = %q", got)
	}
}

// Property tests.

func TestPropCrossOrthogonal(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a, b := clampV(ax, ay, az), clampV(bx, by, bz)
		c := a.Cross(b)
		// c ⟂ a and c ⟂ b up to roundoff relative to the magnitudes involved.
		tol := 1e-9 * (1 + a.Norm()*b.Norm())
		return math.Abs(c.Dot(a)) <= tol && math.Abs(c.Dot(b)) <= tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropTriangleInequality(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a, b := clampV(ax, ay, az), clampV(bx, by, bz)
		return a.Add(b).Norm() <= a.Norm()+b.Norm()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropRotationPreservesNorm(t *testing.T) {
	f := func(ax, ay, az, angle float64) bool {
		a := clampV(ax, ay, az)
		ang := math.Mod(angle, 2*math.Pi)
		if math.IsNaN(ang) {
			ang = 0.3
		}
		rz := a.RotZ(ang).Norm()
		rx := a.RotX(ang).Norm()
		tol := 1e-9 * (1 + a.Norm())
		return math.Abs(rz-a.Norm()) <= tol && math.Abs(rx-a.Norm()) <= tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropLagrangeIdentity(t *testing.T) {
	// |a×b|² + (a·b)² == |a|²|b|²
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a, b := clampV(ax, ay, az), clampV(bx, by, bz)
		lhs := a.Cross(b).Norm2() + a.Dot(b)*a.Dot(b)
		rhs := a.Norm2() * b.Norm2()
		tol := 1e-9 * (1 + rhs)
		return math.Abs(lhs-rhs) <= tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampV maps arbitrary quick-generated floats into a sane finite range so
// property tolerances stay meaningful.
func clampV(x, y, z float64) V {
	c := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 1
		}
		return math.Mod(v, 1e6)
	}
	return New(c(x), c(y), c(z))
}
