// Package filters implements the classical orbital filter chain of the
// deterministic "legacy" screener (§II) that the hybrid variant reuses as a
// post-grid stage (§III): the apogee/perigee filter (Hoots, Crawford &
// Roehrich 1984), a coplanarity classification, the orbit-path filter
// evaluated at the mutual nodes of the two orbit planes, and the
// node-crossing time filter that intersects the per-orbit passage windows.
//
// Every filter is conservative: a pair is only rejected when the geometry
// proves no approach below the (padded) threshold is possible. False
// negatives in a screening pipeline are unacceptable; false positives merely
// cost a PCA/TCA refinement.
package filters

import (
	"math"

	"repro/internal/mathx"
	"repro/internal/orbit"
	"repro/internal/vec3"
)

// Config parameterises the chain.
type Config struct {
	// ThresholdKm is the screening threshold d (km); the paper uses 2 km.
	ThresholdKm float64
}

// Defaults match the paper's rough-screening scenario. Two orbit planes
// whose relative inclination is below DefaultCoplanarTol are treated as
// coplanar and exempted from the node-based filters; DefaultPathPad widens
// the orbit-path filter's acceptance band to absorb the radius variation
// across the node window.
const (
	DefaultThreshold   = 2.0                 // km
	DefaultCoplanarTol = 1.0 * math.Pi / 180 // 1°
	DefaultPathPad     = 5.0                 // km
)

// WithThreshold returns a copy of c with ThresholdKm defaulted to d when c
// does not already specify a threshold.
func (c Config) WithThreshold(d float64) Config {
	if c.ThresholdKm <= 0 {
		c.ThresholdKm = d
	}
	return c
}

func (c Config) threshold() float64 {
	if c.ThresholdKm <= 0 {
		return DefaultThreshold
	}
	return c.ThresholdKm
}

// ApogeePerigee reports whether the radial shells [perigee−d, apogee+d] of
// the two orbits overlap. Pairs whose shells are disjoint can never come
// within the threshold and are rejected ("the apogee/perigee filter").
func ApogeePerigee(a, b orbit.Elements, thresholdKm float64) bool {
	loA, hiA := a.PerigeeRadius()-thresholdKm, a.ApogeeRadius()+thresholdKm
	loB, hiB := b.PerigeeRadius(), b.ApogeeRadius()
	return loA <= hiB && loB <= hiA
}

// Class is the geometric classification of an orbit pair.
type Class int

const (
	// Rejected pairs cannot approach below the threshold.
	Rejected Class = iota
	// Coplanar pairs share (nearly) one orbital plane; the node-based
	// filters do not apply and the fine search treats them like the
	// grid-based variant does.
	Coplanar
	// NodeCrossing pairs are non-coplanar and can only approach near one
	// of the two mutual nodes, carried in Geometry.
	NodeCrossing
)

// NodeInfo describes one mutual node of a non-coplanar pair.
type NodeInfo struct {
	// Dir is the unit vector from Earth's centre along the node line.
	Dir vec3.V
	// FA, FB are the true anomalies at which orbit A / B cross the node ray.
	FA, FB float64
	// RA, RB are the geocentric radii of the crossings (km).
	RA, RB float64
	// WindowA, WindowB are the half-widths (rad of true anomaly) around
	// FA/FB within which the respective satellite is close enough to the
	// other orbit's plane to possibly breach the threshold.
	WindowA, WindowB float64
	// Passes reports whether the orbit-path filter keeps this node: the
	// radial bands of the two orbits across their windows, padded by the
	// threshold, overlap.
	Passes bool
}

// Geometry is the full chain verdict for one pair.
type Geometry struct {
	Class      Class
	RelInc     float64 // relative inclination between the planes (rad)
	Nodes      [2]NodeInfo
	RejectedBy string // which filter rejected ("apogee-perigee", "orbit-path")
}

// Classify runs the geometric (time-independent) part of the chain:
// apogee/perigee, coplanarity, and the orbit-path filter at both mutual
// nodes. It never consults satellite phase — that is the time filter's job.
func Classify(a, b orbit.Elements, cfg Config) Geometry {
	d := cfg.threshold()
	if !ApogeePerigee(a, b, d) {
		return Geometry{Class: Rejected, RejectedBy: "apogee-perigee"}
	}
	line, relInc, ok := orbit.MutualNodeLine(a, b, DefaultCoplanarTol)
	if !ok {
		return Geometry{Class: Coplanar, RelInc: relInc}
	}
	g := Geometry{Class: NodeCrossing, RelInc: relInc}

	sinRel := math.Sin(relInc)
	anyPass := false
	wholeOrbit := false
	for i, dir := range []vec3.V{line, line.Neg()} {
		n := NodeInfo{Dir: dir}
		n.FA = a.TrueAnomalyOfDirection(dir)
		n.FB = b.TrueAnomalyOfDirection(dir)
		n.RA = a.RadiusAtTrueAnomaly(n.FA)
		n.RB = b.RadiusAtTrueAnomaly(n.FB)
		n.WindowA, wholeOrbit = anomalyWindow(a, d, sinRel)
		if wholeOrbit {
			return Geometry{Class: Coplanar, RelInc: relInc}
		}
		n.WindowB, wholeOrbit = anomalyWindow(b, d, sinRel)
		if wholeOrbit {
			return Geometry{Class: Coplanar, RelInc: relInc}
		}
		n.Passes = nodePathOverlap(a, b, n, d+DefaultPathPad)
		if n.Passes {
			anyPass = true
		}
		g.Nodes[i] = n
	}
	if !anyPass {
		g.Class = Rejected
		g.RejectedBy = "orbit-path"
	}
	return g
}

// anomalyWindow returns the half-width w of the true-anomaly window around a
// node inside which a satellite on el can be within distance d of the other
// orbit's plane: the out-of-plane offset is ≈ r·sin(I_R)·|sin(f − f_node)|,
// bounded conservatively with the perigee radius. wholeOrbit is true when
// the window spans the entire orbit (the pair must then be treated as
// coplanar).
func anomalyWindow(el orbit.Elements, d, sinRel float64) (w float64, wholeOrbit bool) {
	den := el.PerigeeRadius() * sinRel
	if den <= 0 {
		return 0, true
	}
	s := d / den
	if s >= 1 {
		return 0, true
	}
	// Inflate slightly: the plane-distance formula is first-order.
	w = math.Asin(s) * 1.5
	if w > math.Pi/2 {
		return 0, true
	}
	return w, false
}

// nodePathOverlap implements the orbit-path acceptance at one node: take
// each orbit's radial band across its window (radius evaluated at the node
// and both window edges — the radius is monotone in |f − perigee distance|
// over windows ≪ π, so the extremes are at the evaluated points), pad by
// the threshold, and keep the node if the bands intersect.
func nodePathOverlap(a, b orbit.Elements, n NodeInfo, pad float64) bool {
	loA, hiA := radialBand(a, n.FA, n.WindowA)
	loB, hiB := radialBand(b, n.FB, n.WindowB)
	return loA-pad <= hiB && loB <= hiA+pad
}

func radialBand(el orbit.Elements, f, w float64) (lo, hi float64) {
	r0 := el.RadiusAtTrueAnomaly(f)
	r1 := el.RadiusAtTrueAnomaly(f - w)
	r2 := el.RadiusAtTrueAnomaly(f + w)
	lo = math.Min(r0, math.Min(r1, r2))
	hi = math.Max(r0, math.Max(r1, r2))
	return lo, hi
}

// Window is a closed time interval [T0, T1] in seconds from epoch.
type Window struct {
	T0, T1 float64
}

// NodeWindows expands the true-anomaly windows of one passing node into the
// satellite's node-passage time windows over [0, span] seconds. Each
// revolution contributes one window per node.
func NodeWindows(el orbit.Elements, fNode, halfWidth, span float64, dst []Window) []Window {
	n := el.MeanMotion()
	period := mathx.TwoPi / n

	// Convert the window-edge true anomalies to mean anomalies.
	mLo := el.MeanFromEccentric(el.EccentricFromTrue(fNode - halfWidth))
	mHi := el.MeanFromEccentric(el.EccentricFromTrue(fNode + halfWidth))
	// Times (within the first revolution) at which those mean anomalies are
	// reached, relative to the epoch mean anomaly M₀.
	tLo := mathx.NormalizeAngle(mLo-el.MeanAnomaly) / n
	tHi := mathx.NormalizeAngle(mHi-el.MeanAnomaly) / n
	if tHi < tLo {
		tHi += period
	}
	// Replicate across revolutions, starting one revolution early so a
	// window straddling t = 0 is not lost.
	for t := tLo - period; t <= span; t += period {
		w := Window{T0: t, T1: t + (tHi - tLo)}
		if w.T1 < 0 {
			continue
		}
		if w.T0 < 0 {
			w.T0 = 0
		}
		if w.T1 > span {
			w.T1 = span
		}
		if w.T1 >= w.T0 {
			dst = append(dst, w)
		}
	}
	return dst
}

// OverlapWindows intersects two sorted-or-not window lists and returns every
// non-empty pairwise intersection, each padded by pad seconds on both sides
// and clamped to [0, span]. These are the candidate intervals the time
// filter hands to the fine PCA/TCA search.
func OverlapWindows(a, b []Window, pad, span float64) []Window {
	var out []Window
	for _, wa := range a {
		for _, wb := range b {
			lo := math.Max(wa.T0, wb.T0)
			hi := math.Min(wa.T1, wb.T1)
			if lo <= hi {
				w := Window{T0: math.Max(0, lo-pad), T1: math.Min(span, hi+pad)}
				out = append(out, w)
			}
		}
	}
	return MergeWindows(out)
}

// MergeWindows sorts windows by start and merges overlapping or touching
// ones.
func MergeWindows(ws []Window) []Window {
	if len(ws) <= 1 {
		return ws
	}
	// Insertion sort: the lists are short.
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].T0 < ws[j-1].T0; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
	out := ws[:1]
	for _, w := range ws[1:] {
		last := &out[len(out)-1]
		if w.T0 <= last.T1 {
			if w.T1 > last.T1 {
				last.T1 = w.T1
			}
		} else {
			out = append(out, w)
		}
	}
	return out
}

// TimeFilter runs the complete node time filter for a NodeCrossing pair:
// for every passing node it builds both satellites' passage windows over
// [0, span] and intersects them. The returned windows (possibly empty —
// then the pair generates no conjunction) are the fine-search intervals.
// pad is added around each intersection to absorb window-model error; the
// legacy screener uses a few seconds.
func TimeFilter(a, b orbit.Elements, g Geometry, span, pad float64) []Window {
	var all []Window
	var bufA, bufB []Window
	for _, n := range g.Nodes {
		if !n.Passes {
			continue
		}
		bufA = NodeWindows(a, n.FA, n.WindowA, span, bufA[:0])
		bufB = NodeWindows(b, n.FB, n.WindowB, span, bufB[:0])
		all = append(all, OverlapWindows(bufA, bufB, pad, span)...)
	}
	return MergeWindows(all)
}

// Stats counts filter decisions for the pipeline reports (§V-C1's
// coplanarity share and the legacy funnel).
type Stats struct {
	Pairs          int64 // pairs entering the chain
	ApogeePerigeeR int64 // rejected by the apogee/perigee filter
	PathR          int64 // rejected by the orbit-path filter
	CoplanarK      int64 // kept, classified coplanar
	NodeK          int64 // kept, classified node-crossing
}

// Add accumulates one classification outcome.
func (s *Stats) Add(g Geometry) {
	s.Pairs++
	switch {
	case g.Class == Rejected && g.RejectedBy == "apogee-perigee":
		s.ApogeePerigeeR++
	case g.Class == Rejected:
		s.PathR++
	case g.Class == Coplanar:
		s.CoplanarK++
	default:
		s.NodeK++
	}
}

// Merge adds other's counters into s.
func (s *Stats) Merge(other Stats) {
	s.Pairs += other.Pairs
	s.ApogeePerigeeR += other.ApogeePerigeeR
	s.PathR += other.PathR
	s.CoplanarK += other.CoplanarK
	s.NodeK += other.NodeK
}
