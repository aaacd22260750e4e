package main

import (
	"math"
	"testing"

	"repro/internal/orbit"
)

// TestGenerateWalkerConvertsUnits pins the flag-to-config unit conversions:
// -walker-inc is in degrees and -walker-alt an altitude, while the elements
// carry radians and a semi-major axis.
func TestGenerateWalkerConvertsUnits(t *testing.T) {
	sats, err := generate(0, 1, "4x3", 550, 53, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sats) != 12 {
		t.Fatalf("4x3 shell has %d objects, want 12", len(sats))
	}
	for _, s := range sats {
		if inc := s.Elements.Inclination; math.Abs(inc-0.925) > 1e-3 {
			t.Fatalf("object %d: inclination %v rad, want 53° ≈ 0.925 rad", s.ID, inc)
		}
		if a := s.Elements.SemiMajorAxis; math.Abs(a-(orbit.EarthRadius+550)) > 1e-9 {
			t.Fatalf("object %d: semi-major axis %v km, want Earth radius + 550", s.ID, a)
		}
	}
}
