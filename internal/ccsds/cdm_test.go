package ccsds

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/orbit"
	"repro/internal/propagation"
)

func meetingPair(t *testing.T) (propagation.Satellite, propagation.Satellite, core.Conjunction) {
	t.Helper()
	elA := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: 0.4}
	elB := orbit.Elements{SemiMajorAxis: 7000.5, Eccentricity: 0.0005, Inclination: 1.1}
	elA.MeanAnomaly = mathx.NormalizeAngle(-elA.MeanMotion() * 800)
	elB.MeanAnomaly = mathx.NormalizeAngle(-elB.MeanMotion() * 800)
	a := propagation.MustSatellite(3, elA)
	b := propagation.MustSatellite(9, elB)
	grid, _ := core.Lookup(core.VariantGrid)
	det := grid.New(core.Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: 1600})
	res, err := det.ScreenContext(context.Background(), []propagation.Satellite{a, b})
	if err != nil {
		t.Fatal(err)
	}
	ev := res.Events(10)
	if len(ev) != 1 {
		t.Fatalf("expected 1 event, got %d", len(ev))
	}
	return a, b, ev[0]
}

func TestFromConjunctionConsistency(t *testing.T) {
	a, b, c := meetingPair(t)
	epoch := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	m := FromConjunction(c, &a, &b, propagation.TwoBody{}, epoch, "SATCONJ")

	// Miss distance must equal the RTN vector magnitude and the PCA.
	rtn := math.Sqrt(m.RelPosRTN[0]*m.RelPosRTN[0] + m.RelPosRTN[1]*m.RelPosRTN[1] + m.RelPosRTN[2]*m.RelPosRTN[2])
	if math.Abs(rtn-m.MissDistanceM) > 0.5 {
		t.Errorf("|RTN| = %.3f m, MISS_DISTANCE = %.3f m", rtn, m.MissDistanceM)
	}
	if math.Abs(m.MissDistanceM-c.PCA*1000) > 1e-6 {
		t.Errorf("MissDistance = %v, PCA = %v km", m.MissDistanceM, c.PCA)
	}
	// Crossing LEO orbits close at km/s.
	if m.RelativeSpeedMS < 1000 || m.RelativeSpeedMS > 16000 {
		t.Errorf("RelativeSpeed = %v m/s", m.RelativeSpeedMS)
	}
	wantTCA := epoch.Add(time.Duration(c.TCA * float64(time.Second)))
	if m.TCA.Sub(wantTCA).Abs() > time.Millisecond {
		t.Errorf("TCA = %v, want %v", m.TCA, wantTCA)
	}
	if m.Object1.Designator != "00003" || m.Object2.Designator != "00009" {
		t.Errorf("designators %q/%q", m.Object1.Designator, m.Object2.Designator)
	}
}

func TestWriteParseRoundtrip(t *testing.T) {
	a, b, c := meetingPair(t)
	epoch := time.Date(2026, 7, 6, 12, 30, 0, 0, time.UTC)
	m := FromConjunction(c, &a, &b, propagation.TwoBody{}, epoch, "SATCONJ")

	var sb strings.Builder
	if err := m.WriteKVN(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"CCSDS_CDM_VERS", "MISS_DISTANCE", "RELATIVE_POSITION_N", "OBJECT1", "OBJECT2"} {
		if !strings.Contains(out, want) {
			t.Errorf("KVN missing %s:\n%s", want, out)
		}
	}

	back, err := ParseKVN(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(back.MissDistanceM-m.MissDistanceM) > 1e-3 {
		t.Errorf("MissDistance roundtrip %v → %v", m.MissDistanceM, back.MissDistanceM)
	}
	if back.TCA.Sub(m.TCA).Abs() > time.Millisecond {
		t.Errorf("TCA roundtrip %v → %v", m.TCA, back.TCA)
	}
	if back.Originator != "SATCONJ" || back.MessageID != m.MessageID {
		t.Errorf("header roundtrip: %+v", back)
	}
	if back.Object2.Name != m.Object2.Name {
		t.Errorf("object roundtrip: %+v", back.Object2)
	}
	for i := range back.RelPosRTN {
		if math.Abs(back.RelPosRTN[i]-m.RelPosRTN[i]) > 1e-3 {
			t.Errorf("RTN[%d] roundtrip %v → %v", i, m.RelPosRTN[i], back.RelPosRTN[i])
		}
	}
}

func TestParseKVNErrors(t *testing.T) {
	if _, err := ParseKVN(strings.NewReader("CCSDS_CDM_VERS = 2.0\n")); err == nil {
		t.Error("unsupported version accepted")
	}
	if _, err := ParseKVN(strings.NewReader("NO_EQUALS_HERE\n")); err == nil {
		t.Error("malformed line accepted")
	}
	if _, err := ParseKVN(strings.NewReader("MISS_DISTANCE = abc [m]\n")); err == nil {
		t.Error("non-numeric value accepted")
	}
	if _, err := ParseKVN(strings.NewReader("OBJECT = OBJECT7\n")); err == nil {
		t.Error("unknown object section accepted")
	}
	// Comments and unknown keys are tolerated.
	if _, err := ParseKVN(strings.NewReader("COMMENT hello\nSOME_FUTURE_FIELD = 3\n")); err != nil {
		t.Errorf("tolerant parse failed: %v", err)
	}
}

func TestWriteAll(t *testing.T) {
	a, b, c := meetingPair(t)
	sats := map[int32]*propagation.Satellite{a.ID: &a, b.ID: &b}
	lookup := func(id int32) *propagation.Satellite { return sats[id] }
	var sb strings.Builder
	err := WriteAll(&sb, []core.Conjunction{c, c}, lookup, propagation.TwoBody{}, time.Now(), "SATCONJ")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "CCSDS_CDM_VERS"); got != 2 {
		t.Errorf("wrote %d messages, want 2", got)
	}
	// Unknown satellite reference errors.
	bad := core.Conjunction{A: 999, B: 1000}
	if err := WriteAll(&sb, []core.Conjunction{bad}, lookup, propagation.TwoBody{}, time.Now(), "X"); err == nil {
		t.Error("unknown satellite accepted")
	}
}
