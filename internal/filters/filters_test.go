package filters

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/orbit"
)

func TestApogeePerigee(t *testing.T) {
	low := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.001}  // shell ≈ [6993, 7007]
	high := orbit.Elements{SemiMajorAxis: 8000, Eccentricity: 0.001} // shell ≈ [7992, 8008]
	if ApogeePerigee(low, high, 2) {
		t.Error("disjoint shells accepted")
	}
	if !ApogeePerigee(low, low, 2) {
		t.Error("identical shells rejected")
	}
	// Eccentric orbit spanning both shells.
	cross := orbit.Elements{SemiMajorAxis: 7500, Eccentricity: 0.1} // [6750, 8250]
	if !ApogeePerigee(low, cross, 2) || !ApogeePerigee(high, cross, 2) {
		t.Error("overlapping shells rejected")
	}
	// Threshold padding matters: shells 1.5 km apart pass at d=2, fail at d=0.5.
	a := orbit.Elements{SemiMajorAxis: 7000}
	b := orbit.Elements{SemiMajorAxis: 7001.5}
	if !ApogeePerigee(a, b, 2) {
		t.Error("shells within padded distance rejected")
	}
	if ApogeePerigee(a, b, 0.5) {
		t.Error("shells beyond padded distance accepted")
	}
}

func TestClassifyApogeePerigeeRejection(t *testing.T) {
	a := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.001, Inclination: 0.5}
	b := orbit.Elements{SemiMajorAxis: 9000, Eccentricity: 0.001, Inclination: 1.0}
	g := Classify(a, b, Config{ThresholdKm: 2})
	if g.Class != Rejected || g.RejectedBy != "apogee-perigee" {
		t.Errorf("got %+v, want apogee-perigee rejection", g)
	}
}

func TestClassifyCoplanar(t *testing.T) {
	a := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.01, Inclination: 0.7, RAAN: 1.0}
	b := a
	b.SemiMajorAxis = 7005
	g := Classify(a, b, Config{ThresholdKm: 2})
	if g.Class != Coplanar {
		t.Errorf("identical planes classified %v, want Coplanar", g.Class)
	}
}

func TestClassifyNodeCrossingKept(t *testing.T) {
	// Same shell, inclined planes: crossings at the nodes with equal radii →
	// the path filter must keep the pair.
	a := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.001, Inclination: 0.5}
	b := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.001, Inclination: 1.2}
	g := Classify(a, b, Config{ThresholdKm: 2})
	if g.Class != NodeCrossing {
		t.Fatalf("classified %v, want NodeCrossing", g.Class)
	}
	if !g.Nodes[0].Passes && !g.Nodes[1].Passes {
		t.Error("no node passed for co-shell crossing orbits")
	}
	if math.Abs(g.RelInc-0.7) > 1e-9 {
		t.Errorf("RelInc = %v, want 0.7", g.RelInc)
	}
	// At the node both orbits are at ≈7000 km (near-circular).
	n := g.Nodes[0]
	if math.Abs(n.RA-n.RB) > 20 {
		t.Errorf("node radii %v vs %v", n.RA, n.RB)
	}
}

func TestClassifyPathRejection(t *testing.T) {
	// Crossing planes but radially separated at the nodes: an eccentric
	// orbit whose perigee/apogee land far from the circular orbit's radius
	// at both node directions. Perigee at the node: r=8000·0.9=7200?  Use
	// geometry: circular at 7000; eccentric with perigee 7600 (a=8000,
	// e=0.05) never comes within 600 km of 7000 radially.
	a := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0, Inclination: 0.3}
	b := orbit.Elements{SemiMajorAxis: 8000, Eccentricity: 0.05, Inclination: 1.0}
	// Shells: a = [7000,7000], b = [7600, 8400] → apogee/perigee rejects
	// first. Narrow the shell gap so only the path filter can reject:
	b = orbit.Elements{SemiMajorAxis: 7400, Eccentricity: 0.054, Inclination: 1.0}
	// b shell ≈ [7000.4, 7799.6]: overlaps a's padded shell at perigee, but
	// the perigee direction generally does not point along the node line.
	g := Classify(a, b, Config{ThresholdKm: 2})
	if g.Class == Rejected && g.RejectedBy == "apogee-perigee" {
		t.Fatalf("unexpected apogee/perigee rejection; adjust test geometry")
	}
	// With ω=0 the perigee points along the node (RAAN difference is 0, both
	// ascending nodes at x̂) — so instead rotate the perigee 90° away.
	b.ArgPerigee = math.Pi / 2
	g = Classify(a, b, Config{ThresholdKm: 2})
	if g.Class != Rejected || g.RejectedBy != "orbit-path" {
		t.Errorf("got class=%v by=%q nodes=%+v, want orbit-path rejection", g.Class, g.RejectedBy, g.Nodes)
	}
}

func TestClassifyNearCoplanarWindowBlowup(t *testing.T) {
	// Relative inclination barely above the coplanar tolerance: the anomaly
	// windows cover the whole orbit, so the pair must degrade to Coplanar
	// rather than being filtered on meaningless node geometry.
	a := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.001, Inclination: 0.5}
	b := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.001, Inclination: 0.5 + 0.02}
	g := Classify(a, b, Config{ThresholdKm: 200}) // huge threshold → windows cover the whole orbit
	if g.Class != Coplanar {
		t.Errorf("classified %v, want Coplanar via window blow-up", g.Class)
	}
}

func TestAnomalyWindowMonotoneInThreshold(t *testing.T) {
	el := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.001}
	sinRel := math.Sin(0.5)
	w1, whole1 := anomalyWindow(el, 2, sinRel)
	w2, whole2 := anomalyWindow(el, 20, sinRel)
	if whole1 || whole2 {
		t.Fatal("unexpected whole-orbit window")
	}
	if w2 <= w1 {
		t.Errorf("window did not grow with threshold: %v vs %v", w1, w2)
	}
}

func TestNodeWindowsCoverNodePassages(t *testing.T) {
	// A satellite crosses each node ray once per revolution; over N periods
	// there must be ≈N windows, each containing the actual crossing time.
	el := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.001, Inclination: 0.9, MeanAnomaly: 1.0}
	fNode := 2.0
	span := 5 * el.Period()
	ws := NodeWindows(el, fNode, 0.05, span, nil)
	if len(ws) < 5 || len(ws) > 6 {
		t.Fatalf("%d windows over 5 periods, want 5–6", len(ws))
	}
	// Compute exact crossing times and verify containment.
	n := el.MeanMotion()
	mNode := el.MeanFromEccentric(el.EccentricFromTrue(fNode))
	t0 := mathx.NormalizeAngle(mNode-el.MeanAnomaly) / n
	for k := 0; ; k++ {
		tc := t0 + float64(k)*el.Period()
		if tc > span {
			break
		}
		found := false
		for _, w := range ws {
			if tc >= w.T0-1e-6 && tc <= w.T1+1e-6 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("crossing at t=%v not inside any window %v", tc, ws)
		}
	}
}

func TestNodeWindowsClampedToSpan(t *testing.T) {
	el := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.001}
	ws := NodeWindows(el, 1.0, 0.1, 1000, nil)
	for _, w := range ws {
		if w.T0 < 0 || w.T1 > 1000 || w.T0 > w.T1 {
			t.Errorf("window %+v escapes [0,1000]", w)
		}
	}
}

func TestOverlapWindows(t *testing.T) {
	a := []Window{{0, 10}, {50, 60}}
	b := []Window{{5, 20}, {55, 58}, {90, 95}}
	got := OverlapWindows(a, b, 0, 100)
	want := []Window{{5, 10}, {55, 58}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i].T0-want[i].T0) > 1e-12 || math.Abs(got[i].T1-want[i].T1) > 1e-12 {
			t.Errorf("window %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if out := OverlapWindows([]Window{{0, 10}}, []Window{{20, 30}}, 0, 100); len(out) != 0 {
		t.Errorf("disjoint windows produced overlap %v", out)
	}
}

func TestOverlapWindowsPadAndClamp(t *testing.T) {
	got := OverlapWindows([]Window{{0, 5}}, []Window{{4, 20}}, 3, 10)
	if len(got) != 1 {
		t.Fatalf("got %v", got)
	}
	if got[0].T0 != 1 || got[0].T1 != 8 {
		t.Errorf("padded window = %+v, want [1,8]", got[0])
	}
	// Pad clamps at the span boundaries.
	got = OverlapWindows([]Window{{0, 5}}, []Window{{0, 20}}, 10, 10)
	if got[0].T0 != 0 || got[0].T1 != 10 {
		t.Errorf("clamped window = %+v, want [0,10]", got[0])
	}
}

func TestMergeWindows(t *testing.T) {
	in := []Window{{5, 10}, {0, 6}, {20, 25}, {24, 30}, {50, 50}}
	got := MergeWindows(in)
	want := []Window{{0, 10}, {20, 30}, {50, 50}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("window %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got := MergeWindows(nil); len(got) != 0 {
		t.Errorf("MergeWindows(nil) = %v", got)
	}
}

func TestTimeFilterFindsTrueApproach(t *testing.T) {
	// Two co-shell crossing orbits phased to meet near a node: the time
	// filter must emit a window containing the true minimum-distance time.
	a := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: 0.4}
	b := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: 1.1}
	// Both start at the ascending node direction (f such that position is
	// along the node). The mutual node for these (RAAN both 0) is ±x̂; with
	// ω=0, f=0 puts both satellites exactly on the +x̂ node at t=0.
	g := Classify(a, b, Config{ThresholdKm: 2})
	if g.Class != NodeCrossing {
		t.Fatalf("class = %v", g.Class)
	}
	span := a.Period() * 2
	ws := TimeFilter(a, b, g, span, 2)
	if len(ws) == 0 {
		t.Fatal("time filter produced no windows for satellites meeting at the node")
	}
	containsZero := false
	for _, w := range ws {
		if w.T0 <= 1 && w.T1 >= 0 {
			containsZero = true
		}
	}
	if !containsZero {
		t.Errorf("no window contains the t=0 encounter: %v", ws)
	}
}

func TestTimeFilterExcludesAntiPhased(t *testing.T) {
	// Same geometry but satellite B phased half a revolution away — with
	// equal periods they never meet; windows must not overlap (except the
	// node-window padding edge case, so use zero pad).
	a := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: 0.4}
	b := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: 1.1, MeanAnomaly: math.Pi}
	g := Classify(a, b, Config{ThresholdKm: 2})
	if g.Class != NodeCrossing {
		t.Fatalf("class = %v", g.Class)
	}
	ws := TimeFilter(a, b, g, a.Period()*3, 0)
	if len(ws) != 0 {
		t.Errorf("anti-phased pair produced windows %v", ws)
	}
}

func TestStats(t *testing.T) {
	var s Stats
	s.Add(Geometry{Class: Rejected, RejectedBy: "apogee-perigee"})
	s.Add(Geometry{Class: Rejected, RejectedBy: "orbit-path"})
	s.Add(Geometry{Class: Coplanar})
	s.Add(Geometry{Class: NodeCrossing})
	if s.Pairs != 4 || s.ApogeePerigeeR != 1 || s.PathR != 1 || s.CoplanarK != 1 || s.NodeK != 1 {
		t.Errorf("stats = %+v", s)
	}
	var m Stats
	m.Merge(s)
	m.Merge(s)
	if m.Pairs != 8 {
		t.Errorf("merged pairs = %d", m.Pairs)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}
	if c.threshold() != DefaultThreshold {
		t.Error("default threshold")
	}
	if c = (Config{ThresholdKm: 5}); c.threshold() != 5 || c.WithThreshold(3).ThresholdKm != 5 {
		t.Error("explicit threshold ignored")
	}
	if c = (Config{}).WithThreshold(3); c.threshold() != 3 {
		t.Error("WithThreshold did not default an unset threshold")
	}
}
