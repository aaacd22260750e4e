package core

import (
	"math"

	"repro/internal/brent"
	"repro/internal/lockfree"
	"repro/internal/orbit"
	"repro/internal/propagation"
	"repro/internal/vec3"
)

// Refinement (§IV-C) by run, on the sampling lattice (DESIGN.md §2.6): lattice
// interval k owns the minima in (t_k, t_k+1]. Every state is a function of
// (object, t) and every search of (pair, interval), so a record does not
// depend on which candidates formed its run.

const (
	refineTol = 1e-4 // Brent's abscissa tolerance, seconds
	maxSplit  = 6    // halvings of an interval no bound settles before Brent searches it
)

// refineCounts are a worker's refinement counters (PhaseStats).
type refineCounts struct {
	prefiltered, batches, runs, intervals, brackets, brent int
	proved                                                 [3]int
}

// lattice is the span's sampling lattice: t_k = k·sps for k < last, t_last = span.
type lattice struct {
	sps, span   float64
	last, steps int
}

func newLattice(sps, span float64, steps int) lattice {
	l := lattice{sps: sps, span: span, steps: steps, last: steps - 1}
	if float64(l.last)*sps < span {
		l.last++
	}
	return l
}

func (l lattice) at(k int) float64 { return min(float64(k)*l.sps, l.span) }

// cover is the lattice intervals [kLo, kHi) that cover [lo, hi].
func (l lattice) cover(lo, hi float64) (kLo, kHi int) {
	kLo = min(max(int(math.Floor(lo/l.sps)), 0), l.last-1)
	return kLo, min(max(int(math.Ceil(hi/l.sps)), kLo+1), l.last)
}

// evalSat is one side of a pairEvaluator: the satellite, its bounds, and its
// warm-start state — the eccentric anomaly solved at tLast seeds the next
// solve, so a Brent search's evaluations cost a Newton iteration or two.
type evalSat struct {
	sat        *propagation.Satellite
	acc, dv    float64 // bounds on ‖r̈‖ and on how far the velocity lies from ṙ (gateBounds)
	rp, vp     float64 // perigee radius and speed: the least radius and largest speed on the orbit
	ecc, tLast float64 // eccentric anomaly at tLast
	warmed     bool
}

// pairEvaluator computes a pair's states and squared separations; bind keeps
// a side's constants while its satellite is unchanged, which the (A, B, Step)
// candidate order makes the common case.
type pairEvaluator struct {
	prop   propagation.Propagator
	proofs bool // two-body: the curvature and chord bounds hold
	a, b   evalSat
	center float64 // offset origin of dist2Offset, seconds
}

// bind points the evaluator at a pair and reports whether a was rebound.
func (e *pairEvaluator) bind(a, b *propagation.Satellite) bool {
	rebound := e.a.sat != a
	if rebound {
		e.a = e.side(a)
	}
	if e.b.sat != b {
		e.b = e.side(b)
	}
	return rebound
}

func (e *pairEvaluator) side(s *propagation.Satellite) evalSat {
	_, acc, dv, _ := gateBounds(e.prop, s, 0)
	el := s.Elements
	vp := math.Sqrt(orbit.MuEarth/el.SemiLatusRectum()) * (1 + el.Eccentricity)
	return evalSat{sat: s, acc: acc, dv: dv, rp: el.PerigeeRadius(), vp: vp}
}

// separated is the pre-filter for the relative state (d, u) over offsets
// [lo, hi]: both sides' acceleration bounds, and the threshold padded by how
// far their velocities may lie from ṙ over the farther end.
func (e *pairEvaluator) separated(d, u vec3.V, lo, hi, threshold float64) bool {
	pad := (e.a.dv + e.b.dv) * max(math.Abs(lo), math.Abs(hi))
	return prefilterReject(d, u, lo, hi, e.a.acc+e.b.acc, threshold+pad)
}

// state propagates one side to t from its warm guess, or cold from the e → 0
// root (kepler.SolveFrom re-centres any guess, so accuracy never depends on it).
func (e *pairEvaluator) state(s *evalSat, t float64) (pos, vel vec3.V) {
	guess := s.sat.Elements.MeanAnomaly + s.sat.MeanMotion()*t
	if s.warmed {
		guess = s.ecc + s.sat.MeanMotion()*(t-s.tLast)
	}
	pos, vel, s.ecc = e.prop.StateWarm(s.sat, t, guess)
	s.tLast, s.warmed = t, true
	return pos, vel
}

// coldStates evaluates both sides at t from the e → 0 guess: states that are
// a function of (object, t) alone.
func (e *pairEvaluator) coldStates(t float64) (pa, va, pb, vb vec3.V) {
	e.a.warmed, e.b.warmed = false, false
	pa, va = e.state(&e.a, t)
	pb, vb = e.state(&e.b, t)
	return pa, va, pb, vb
}

// dist2Offset is Brent's objective: squared separation at center + dt.
func (e *pairEvaluator) dist2Offset(dt float64) float64 {
	pa, _ := e.state(&e.a, e.center+dt)
	pb, _ := e.state(&e.b, e.center+dt)
	return pa.Dist2(pb)
}

// latticeState is a pair's relative state at t: Δr, Δv, ρ̇ = Δr·Δv and |Δr|².
type latticeState struct {
	t, g, dist2 float64
	d, u        vec3.V
}

func (e *pairEvaluator) latticeState(t float64) latticeState {
	pa, va, pb, vb := e.coldStates(t)
	d, u := pa.Sub(pb), va.Sub(vb)
	return latticeState{t: t, g: d.Dot(u), dist2: d.Dot(d), d: d, u: u}
}

// pairRefiner is a refine worker's scratch: its evaluator, the hoisted
// objective (binding it per search would allocate), its counters, and the
// pair being refined and its records.
type pairRefiner struct {
	ev   *pairEvaluator
	f    func(float64) float64
	n    refineCounts
	lat  lattice
	a, b int32
	thr  float64
	out  []Conjunction
}

func newPairRefiner(prop propagation.Propagator, lat lattice) *pairRefiner {
	_, twoBody := prop.(propagation.TwoBody)
	ev := &pairEvaluator{prop: prop, proofs: twoBody}
	return &pairRefiner{ev: ev, f: ev.dist2Offset, lat: lat}
}

// refinePair refines one pair's candidates, in step order. Each candidate's
// grid-rule window — the time the slower object needs to cross two cells, at
// its speed at the step — meets the pre-filter; surviving windows that
// overlap, widened to the lattice, form a run. Runs stay disjoint: a window
// reaching back into a refined run starts where that run ended.
func (p *pairRefiner) refinePair(r *run, cands []uint64, prefilter bool) {
	c := lockfree.UnpackPair(cands[0])
	if p.ev.bind(&r.sats[r.idx[c.A]], &r.sats[r.idx[c.B]]) {
		p.n.batches++
	}
	p.a, p.b, p.thr = min(c.A, c.B), max(c.A, c.B), r.pairThreshold(c.A, c.B)
	runLo, runHi, done := 0, -1, 0
	for _, k := range cands {
		t := float64(lockfree.UnpackPair(k).Step) * r.sps
		pa, va, pb, vb := p.ev.coldStates(t)
		radius := 2 * r.cellSize / max(min(va.Norm(), vb.Norm()), 1e-9)
		lo, hi := max(-radius, -t), min(radius, p.lat.span-t)
		if prefilter && p.ev.separated(pa.Sub(pb), va.Sub(vb), lo, hi, p.thr) {
			p.n.prefiltered++
			continue
		}
		kLo, kHi := p.lat.cover(t+lo, t+hi)
		kLo = max(kLo, done)
		switch {
		case kHi <= kLo: // inside a refined run
		case runHi >= 0 && kLo <= runHi:
			runLo, runHi = min(runLo, kLo), max(runHi, kHi)
		default:
			if runHi >= 0 {
				p.refineRun(runLo, runHi)
				done = runHi
			}
			runLo, runHi = max(kLo, done), kHi
		}
	}
	if runHi > runLo {
		p.refineRun(runLo, runHi)
	}
}

// refineRun examines lattice intervals [kLo, kHi). No interval lies beyond
// the span, so a run from t = 0 owns a minimum there (ρ̇(0) ≥ 0), and one to
// the span's end a minimum there (ρ̇ < 0).
func (p *pairRefiner) refineRun(kLo, kHi int) {
	p.n.runs++
	s0 := p.ev.latticeState(p.lat.at(kLo))
	if kLo == 0 && s0.g >= 0 {
		p.record(0, s0.t, s0.dist2)
	}
	for k := kLo; k < kHi; k++ {
		s1 := p.ev.latticeState(p.lat.at(k + 1))
		p.n.intervals++
		p.examine(k, &s0, &s1, 0)
		s0 = s1
	}
	if kHi == p.lat.last && s0.g < 0 {
		p.record(kHi-1, s0.t, s0.dist2)
	}
}

// examine refines [s0.t, s1.t] of lattice interval k: a bracket gets one
// Brent search unless the pre-filter proves the pair apart; any other
// interval is dropped once a bound proves it holds no interior minimum. What
// no bound settles is halved, up to maxSplit times, and then searched.
func (p *pairRefiner) examine(k int, s0, s1 *latticeState, depth int) {
	top, bracket, h := max(1-depth, 0), s0.g < 0 && s1.g >= 0, s1.t-s0.t // top counts lattice intervals, not halves
	if bracket {
		p.n.brackets += top
	}
	if p.ev.separated(s0.d, s0.u, 0, h, p.thr) || p.ev.separated(s1.d, s1.u, -h, 0, p.thr) {
		if !bracket {
			p.n.proved[0] += top
		}
		return
	}
	curvature, chord := p.ev.monotone(s0, s1)
	switch {
	case bracket && (curvature || chord&1 != 0):
		p.search(k, s0, s1, true)
	case !bracket && curvature:
		p.n.proved[1] += top
	case !bracket && chord != 0:
		p.n.proved[2] += top
	case depth < maxSplit && p.ev.proofs && (s0.g != 0 || s1.g != 0): //lint:floateq-ok ρ̇ exactly 0 at both ends: a pair that does not move apart, nothing to split
		mid := p.ev.latticeState(s0.t + h/2)
		p.examine(k, s0, &mid, depth+1)
		p.examine(k, &mid, s1, depth+1)
	default:
		p.search(k, s0, s1, bracket)
	}
}

// search runs Brent over [s0.t, s1.t] from cold states. A bracket's minimum
// is a record wherever it lies, any other interval's only inside it: its
// ends belong to the neighbouring intervals.
func (p *pairRefiner) search(k int, s0, s1 *latticeState, bracket bool) {
	p.n.brent++
	h := s1.t - s0.t
	p.ev.center, p.ev.a.warmed, p.ev.b.warmed = s0.t, false, false
	res, _ := brent.Minimize(p.f, 0, h, refineTol, 100)
	if edge := max(16*refineTol, 1e-3*h); bracket || (res.X > edge && res.X < h-edge) {
		p.record(k, s0.t+res.X, res.F)
	}
}

// record keeps a minimum of squared separation dist2 at tca in interval k
// below the pair's threshold, at the step of the interval's nearer end.
func (p *pairRefiner) record(k int, tca, dist2 float64) {
	if tca-p.lat.at(k) > p.lat.at(k+1)-tca {
		k++
	}
	if pca := math.Sqrt(dist2); pca <= p.thr {
		p.out = append(p.out, Conjunction{A: p.a, B: p.b, Step: uint32(min(k, p.lat.steps-1)), TCA: tca, PCA: pca})
	}
}

// monotone proves, for two-body states, that ρ̇ has no interior zero that is
// a minimum of the separation (DESIGN.md §5, row 10). With X ≥ |Δr| on the
// interval and Γ = 2μ/r³ the gravity gradient's bound, |Δa| ≤ Γ·X, so ρ̈ =
// |Δv|² + Δr·Δa > 0 — ρ̇ increasing, and only a bracket holds a minimum —
// when the least |Δv| exceeds √Γ·X (curvature). With M ≥ |ρ⃛|, ρ̇ lies within
// E = h²/8·M of its chord: it is monotone when its ends differ by more than
// 4E (chord bit 1), and has no zero when they share a sign and each exceeds E
// (chord bit 2).
func (e *pairEvaluator) monotone(s0, s1 *latticeState) (curvature bool, chord int) {
	h, u0, u1 := s1.t-s0.t, s0.u.Norm(), s1.u.Norm()
	x := min(max(math.Sqrt(s0.dist2), s0.d.Add(s0.u.Scale(h)).Norm()), max(math.Sqrt(s1.dist2), s1.d.Sub(s1.u.Scale(h)).Norm()))
	r := min(e.a.rp, e.b.rp) - 2*x
	gam := 2 * orbit.MuEarth / (r * r * r)
	if !e.proofs || r <= 0 || gam*h*h >= 1 {
		return false, 0
	}
	x /= 1 - gam*h*h/2 // |Δr| ≤ the linear part + Γ·X·h²/2
	uMin, uMax := (u0+u1-gam*x*h)/2, (u0+u1+gam*x*h)/2
	m := 4*gam*x*uMax + 24*orbit.MuEarth/(r*r*r*r)*x*x*max(e.a.vp, e.b.vp)
	eps := h*h/8*m + 1e-9*(u0+u1) + 1e-12*x
	if math.Abs(s1.g-s0.g) > 4*eps {
		chord |= 1
	}
	if s0.g*s1.g > 0 && min(math.Abs(s0.g), math.Abs(s1.g)) > eps {
		chord |= 2
	}
	return uMin > 0 && uMin*uMin > gam*x*x, chord
}

// prefilterReject reports whether a separation d₀ + w·dt provably stays above
// threshold over dt ∈ [lo, hi], from the relative position d₀ and velocity
// w at dt = 0 — the analytic pre-filter (after Rivero & Baù's trajectory
// bounds) that spares most candidates any Brent evaluation. Each trajectory
// leaves its tangent line by at most ½·a_max·dt² (‖r̈‖ ≤ μ/r_p²), so
//
//	d(dt) ≥ ‖d₀ + w·dt‖ − ½(a_A + a_B)·dt²,
//
// minimised in closed form for the linear term and taken at the wider end for
// the quadratic one: a sound lower bound. It compares squares and divides
// nothing: with the line closest at dt* = −d₀·w/|w|² inside [lo, hi], its
// squared distance there is |d₀ × w|²/|w|² (Lagrange's identity); else it
// is that at the nearer end.
func prefilterReject(d0, w vec3.V, lo, hi, accSum, threshold float64) bool {
	r := threshold + 0.5*accSum*max(lo*lo, hi*hi)
	w2, p := w.Dot(w), -d0.Dot(w)
	switch {
	case r < 0:
		return true
	case p < lo*w2:
		d0 = d0.Add(w.Scale(lo))
	case p > hi*w2:
		d0 = d0.Add(w.Scale(hi))
	default:
		c := d0.Cross(w)
		return c.Dot(c) > r*r*w2
	}
	return d0.Dot(d0) > r*r
}
