package propagation

import (
	"math"
	"testing"

	"repro/internal/orbit"
	"repro/internal/vec3"
)

func TestNumericMatchesTwoBodyClosedForm(t *testing.T) {
	s := leoSat(t)
	num := Numeric{StepSeconds: 5}
	analytic := TwoBody{}
	for _, tt := range []float64{0, 100, 1000, s.Period()} {
		pn, vn := num.State(&s, tt)
		pa, va := analytic.State(&s, tt)
		if d := pn.Dist(pa); d > 1e-3 {
			t.Errorf("t=%v: position differs by %v km", tt, d)
		}
		if d := vn.Dist(va); d > 1e-6 {
			t.Errorf("t=%v: velocity differs by %v km/s", tt, d)
		}
	}
}

func TestNumericBackwardTime(t *testing.T) {
	s := leoSat(t)
	num := Numeric{StepSeconds: 5}
	analytic := TwoBody{}
	pn, _ := num.State(&s, -600)
	pa, _ := analytic.State(&s, -600)
	if d := pn.Dist(pa); d > 1e-3 {
		t.Errorf("backward position differs by %v km", d)
	}
}

func TestNumericEnergyConservation(t *testing.T) {
	s := leoSat(t)
	num := Numeric{StepSeconds: 10}
	energy := func(p, v vec3.V) float64 { return v.Norm2()/2 - orbit.MuEarth/p.Norm() }
	p0, v0 := num.State(&s, 0)
	e0 := energy(p0, v0)
	p1, v1 := num.State(&s, 3*s.Period())
	if rel := math.Abs(energy(p1, v1)-e0) / math.Abs(e0); rel > 1e-9 {
		t.Errorf("energy drift %.3e over 3 orbits", rel)
	}
}

func TestNumericJ2MatchesSecularNodeRate(t *testing.T) {
	// Integrate the full J2 force over several orbits and compare the node
	// precession against the secular-rate propagator's prediction.
	s := leoSat(t)
	num := Numeric{Forces: []Force{PointMass{}, J2Force{}}, StepSeconds: 5}
	span := 5 * s.Period()
	pos, vel := num.State(&s, span)
	el, err := orbit.FromStateVector(pos, vel)
	if err != nil {
		t.Fatal(err)
	}
	raanDot, _, _ := J2{}.Rates(&s)
	wantRAAN := s.Elements.RAAN + raanDot*span
	// Osculating RAAN oscillates around the secular trend; allow the
	// short-period amplitude (~1e-3 rad at LEO).
	if diff := math.Abs(el.RAAN - wantRAAN); diff > 2e-3 {
		t.Errorf("RAAN after 5 orbits = %v, secular prediction %v (diff %v)", el.RAAN, wantRAAN, diff)
	}
	// And the drift must be clearly nonzero (i.e. J2 was actually applied).
	if math.Abs(el.RAAN-s.Elements.RAAN) < 1e-4 {
		t.Error("no node precession measured; J2 force inert?")
	}
}

func TestNumericDragDecaysOrbit(t *testing.T) {
	// A low orbit with drag must lose energy: semi-major axis decreases.
	s := MustSatellite(1, orbit.Elements{
		SemiMajorAxis: orbit.EarthRadius + 400,
		Eccentricity:  0.001,
		Inclination:   0.9,
	})
	num := Numeric{
		Forces:      []Force{PointMass{}, Drag{CdAOverM: 0.05, RefDensityKgM3: 1e-11, RefAltitudeKm: 400}},
		StepSeconds: 10,
	}
	pos, vel := num.State(&s, 5*s.Period())
	el, err := orbit.FromStateVector(pos, vel)
	if err != nil {
		t.Fatal(err)
	}
	if el.SemiMajorAxis >= s.Elements.SemiMajorAxis {
		t.Errorf("semi-major axis grew under drag: %v → %v", s.Elements.SemiMajorAxis, el.SemiMajorAxis)
	}
	// The decay must be physically small over 5 orbits, not catastrophic.
	if s.Elements.SemiMajorAxis-el.SemiMajorAxis > 50 {
		t.Errorf("implausible decay: %v km in 5 orbits", s.Elements.SemiMajorAxis-el.SemiMajorAxis)
	}
}

func TestForceNames(t *testing.T) {
	for _, f := range []Force{PointMass{}, J2Force{}, Drag{}} {
		if f.Name() == "" {
			t.Errorf("%T has empty name", f)
		}
	}
	if (Numeric{}).Name() == "" {
		t.Error("numeric propagator has empty name")
	}
}

func TestForceDegenerateInputs(t *testing.T) {
	if a := (PointMass{}).Accel(vec3.Zero, vec3.Zero, 0); a != vec3.Zero {
		t.Errorf("point-mass at origin = %v", a)
	}
	if a := (J2Force{}).Accel(vec3.Zero, vec3.Zero, 0); a != vec3.Zero {
		t.Errorf("J2 at origin = %v", a)
	}
	if a := (Drag{CdAOverM: 0.05}).Accel(vec3.New(7000, 0, 0), vec3.Zero, 0); a != vec3.Zero {
		t.Errorf("drag at zero velocity = %v", a)
	}
}

func BenchmarkNumericState(b *testing.B) {
	s := MustSatellite(1, orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.0025, Inclination: 0.9})
	num := Numeric{Forces: []Force{PointMass{}, J2Force{}}, StepSeconds: 10}
	b.ReportAllocs()
	var acc float64
	for i := 0; i < b.N; i++ {
		p, _ := num.State(&s, 600)
		acc += p.X
	}
	sinkF = acc
}
