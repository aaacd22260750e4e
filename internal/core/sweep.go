package core

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/lockfree"
	"repro/internal/orbit"
	"repro/internal/propagation"
	"repro/internal/vec3"
)

// sortDigitBits is the widest digit of sortCells.
const sortDigitBits = 11

// sortHist is sortCells' scratch for the keys of one grid: their width, and
// the histograms of the passes, 1<<d counts each, with room past the last
// for the up to three a fused count writes and never reads: histLen counts.
type sortHist struct {
	keyBits int
	counts  []int32
}

const histLen = 8 << sortDigitBits

// sortCells returns src's entries in ascending key order, in a or b (each at
// least len(src) long), minus the lockfree.EmptySlot entries of out-of-cube
// objects, which the first pass drops. Only the first pass reads src, so b may
// be src; otherwise src is only read. It is a stable LSD
// radix sort of the key as one integer, in digits of d = bits.Len(len(src))
// bits, at least 4 and at most sortDigitBits, so its fixed cost — clearing
// and summing 1<<d counts a pass — follows the list: a full screen's step
// sorts in 11-bit digits, a delta pass's hundred entries in 7-bit ones. One
// walk counts four digits' histograms, so each pass is a scatter only.
func sortCells(src, a, b []lockfree.Cell, hist *sortHist) []lockfree.Cell {
	const most = 1<<sortDigitBits - 1 // bounds every digit: no histogram index is checked
	type counts = [1 << sortDigitBits]int32
	d := uint(min(max(bits.Len(uint(len(src))), 4), sortDigitBits))
	passes, mask := (hist.keyBits+int(d)-1)/int(d), uint64(1)<<d-1
	clear(hist.counts[:passes<<d])
	n := int32(0)
	for g := 0; g < passes; g += 4 {
		h0, h1 := (*counts)(hist.counts[g<<d:]), (*counts)(hist.counts[(g+1)<<d:])
		h2, h3 := (*counts)(hist.counts[(g+2)<<d:]), (*counts)(hist.counts[(g+3)<<d:])
		shift, d2, d3 := uint(g)*d&63, 2*d&63, 3*d&63
		n = 0
		for i := range src {
			if k := src[i].Key; k != lockfree.EmptySlot {
				n++
				k >>= shift
				h0[k&mask&most]++
				h1[k>>d&mask&most]++
				h2[k>>d2&mask&most]++
				h3[k>>d3&mask&most]++
			}
		}
	}
	for p := range passes {
		h, at := hist.counts[p<<d:(p+1)<<d], int32(0)
		for i, c := range h {
			h[i], at = at, at+c
		}
	}
	from, to, spare := src, a, b
	for p := range passes {
		shift, next := uint(p)*d&63, (*counts)(hist.counts[p<<d:])
		for i := range from {
			if k := from[i].Key; k != lockfree.EmptySlot { // only the first pass meets one
				dg := k >> shift & mask & most
				to[next[dg]] = from[i]
				next[dg]++
			}
		}
		from, to, spare = to[:n], spare, to
	}
	return from
}

// groupCells writes into cells, at least len(sorted) long, one Cell{Key, Lo,
// Hi} for each run of equal keys of sorted {key, index, radius} entries: its
// members are sorted[Lo:Hi], in the entries' order.
func groupCells(sorted, cells []lockfree.Cell) []lockfree.Cell {
	n := 0
	for i := 0; i < len(sorted); n++ {
		key, lo := sorted[i].Key, i
		for i < len(sorted) && sorted[i].Key == key {
			i++
		}
		cells[n] = lockfree.Cell{Key: key, Lo: int32(lo), Hi: int32(i)}
	}
	return cells[:n]
}

// radialGate is the sweep's test on a (pair, step) before it emits one
// (DESIGN.md §10), in two parts, each over the pair's reach W_ab = max(W_a,
// W_b) from the objects' rows of the run's table. The radial test keeps the
// pair iff its radii at the step differ by at most g + (ṙ_a + ṙ_b)·W_ab. The
// motion test, if the gate has one, then drops it iff prefilterReject proves
// that the separation stays above g + p·W_ab over [t − W_ab, t + W_ab] ∩
// [0, span]. g = +Inf keeps every pair.
type radialGate struct {
	rows   []lockfree.GateRow // by population index
	g      float32
	pad    float32     // what the radial test adds to g for the build's interpolated radii (knotStride)
	motion *motionTest // nil: the radial test alone
}

// gateCounts are the pairs each test of a run's gate dropped.
type gateCounts struct{ radial, motion atomic.Int64 }

// pairs appends to buf the keys of member y's pairs with members [from, to)
// — {key, population index, float32 bits of the radius} entries — that the
// gate keeps and counts the rest: each key is written, only kept ones stepped
// past. Reaches and |Δr| are ≥ 0: bits and squares order. Member y's state is
// fetched at the first pair the motion test sees.
func (g radialGate) pairs(buf []uint64, members []lockfree.Cell, y, from, to int32, step uint32, radial, motion *int) []uint64 {
	yi := members[y].Lo
	b, rb := g.rows[yi], math.Float32frombits(uint32(members[y].Hi))
	bReach := math.Float32bits(b.Reach)
	n, xs := len(buf), members[from:to]
	out := slices.Grow(buf, len(xs))[:n+len(xs)]
	var pb, vb vec3.V
	fetched, radialG := false, g.g+g.pad
	for _, m := range xs {
		x := m.Lo
		a := &g.rows[x]
		dr := math.Float32frombits(uint32(m.Hi)) - rb
		reach := math.Float32frombits(max(math.Float32bits(a.Reach), bReach))
		bound := radialG + (a.RDot+b.RDot)*reach
		out[n] = lockfree.PackPair(a.ID, b.ID, step)
		switch {
		case dr*dr > bound*bound:
			*radial++
		case g.motion == nil:
			n++
		default:
			if !fetched {
				pb, vb = g.motion.state(yi, step)
				fetched = true
			}
			if g.motion.separates(x, yi, pb, vb, step, reach, g.g) {
				*motion++
			} else {
				n++
			}
		}
	}
	return out[:n]
}

// motionTest is the gate's second test: the pre-filter's bound over the whole
// reach, from states computed at most once per object per step (DESIGN.md §10).
type motionTest struct {
	rows      []lockfree.MotionRow // by population index, pooled; Stamp = step+1 once a row holds the step
	pad       float32              // p: the velocity error two of the table's states may carry, km/s
	sats      []propagation.Satellite
	prop      propagation.Propagator
	sps, span float64
}

// rowBusy is the stamp of a row a worker is writing.
const rowBusy = math.MaxUint32

// state returns object i's position and velocity at step, rounded to
// float32: from its row if the row holds the step, else computed as
// refinement computes them and, unless another worker holds the row,
// published. A row is a function of (i, step) alone, so either way every
// worker gets the same values.
func (m *motionTest) state(i int32, step uint32) (pos, vel vec3.V) {
	row := &m.rows[i]
	stamp := row.Stamp.Load()
	if stamp == step+1 {
		return vec32(row.Pos), vec32(row.Vel)
	}
	s, t := &m.sats[i], float64(step)*m.sps
	pos, vel, _ = m.prop.StateWarm(s, t, s.Elements.MeanAnomaly+s.MeanMotion()*t)
	p32, v32 := round32(pos), round32(vel)
	if stamp != rowBusy && row.Stamp.CompareAndSwap(stamp, rowBusy) {
		row.Pos, row.Vel = p32, v32
		row.Stamp.Store(step + 1)
	}
	return vec32(p32), vec32(v32)
}

// separates reports whether prefilterReject proves that objects x and y, y
// at (pb, vb), stay more than g + p·w apart over [t − w, t + w] ∩ [0, span].
func (m *motionTest) separates(x, y int32, pb, vb vec3.V, step uint32, w, g float32) bool {
	pa, va := m.state(x, step)
	t, wd := float64(step)*m.sps, float64(w)
	acc := float64(m.rows[x].Acc) + float64(m.rows[y].Acc)
	return prefilterReject(pa, va, pb, vb, max(-wd, -t), min(wd, m.span-t), acc, float64(g)+float64(m.pad)*wd)
}

func round32(v vec3.V) [3]float32 { return [3]float32{float32(v.X), float32(v.Y), float32(v.Z)} }

func vec32(v [3]float32) vec3.V { return vec3.V{X: float64(v[0]), Y: float64(v[1]), Z: float64(v[2])} }

// gateSlack is the gate's relative float32 allowance on ṙ, W, the
// accelerations and (· r_max) g: many times the rounding of the radii, of the
// table's states and of the gate's arithmetic (2⁻²⁴).
const gateSlack = 1.0 / (1 << 20)

// newGate fills the run's pooled gate tables: each object's ID, pads and
// acceleration bound. g is the grid's threshold d + 2·u_max plus slack, or
// +Inf — every pair kept — if the propagator may change a or e or the gate
// is ablated; the motion test is on whenever g is finite. The radial test
// reads the build's radii, so it adds pad, the interpolation's 2ε_max; the
// motion test's states are solved, so it does not. An incremental pass's
// entries read from the key track carry no radius: its gate is g = +Inf, and
// the pass writes the rows of what it lists, their IDs alone (gateRow).
func (r *run) newGate(gridThreshold, pad float64) radialGate {
	gate := radialGate{rows: r.pool.GetGateRows(len(r.sats)), g: float32(math.Inf(1)), pad: float32(pad)}
	if r.incremental {
		return gate
	}
	m := &r.motion
	*m = motionTest{rows: r.pool.GetMotionRows(len(r.sats)), sats: r.sats, prop: r.prop, sps: r.sps, span: r.cfg.DurationSeconds}
	exact, rMax, dvMax := !r.cfg.ablation.noGate, 0.0, 0.0
	for i := range r.sats {
		s := &r.sats[i]
		rdot, acc, dv, ok := gateBounds(r.prop, s, gateSlack)
		exact, rMax, dvMax = exact && ok, max(rMax, s.Elements.ApogeeRadius()), max(dvMax, dv)
		gate.rows[i] = lockfree.GateRow{ID: s.ID, RDot: float32(rdot * (1 + gateSlack)), Reach: float32(r.reach(s) * (1 + gateSlack))}
		m.rows[i].Acc = float32(acc * (1 + gateSlack))
	}
	m.pad = float32(2 * dvMax * (1 + gateSlack))
	if exact {
		gate.g, gate.motion = float32(gridThreshold+gateSlack*rMax), m
	}
	return gate
}

// gateBounds bounds, for s under prop, its radial speed |dr/dt|, its
// acceleration ‖r̈‖ and how far a velocity prop returns, held to a relative
// rounding (gateSlack for the motion table's float32 states, 0 for
// refinement's float64 ones), may lie from ṙ; ok only if prop keeps a and e
// (two-body and J2-secular). Two-body: r = a(1 − e·cos E) gives |dr/dM| ≤
// e·√(μ/p)/n with M advancing at n, ‖r̈‖ = μ/r² ≤ μ/r_p², and the velocity is
// off by its rounding, ≤ rounding·v_p (v_p = √(μ/p)(1+e), the perigee speed).
// J2 advances M at n+ΔṀ = k·n in a frame turning at ω ≤ |Ω̇|+|ω̇| and returns
// the conic's own velocity, not ṙ: |dr/dt| scales by k, ‖r̈‖ ≤ k²·μ/r_p² +
// 2ω·k·v_p + 2ω²·r_a, and the velocity is further off by up to |k−1|·v_p +
// ω·r_a. Any other propagator gets the two-body bounds.
func gateBounds(prop propagation.Propagator, s *propagation.Satellite, rounding float64) (rdot, acc, dv float64, ok bool) {
	el := s.Elements
	vc := math.Sqrt(orbit.MuEarth / el.SemiLatusRectum())
	vp := vc * (1 + el.Eccentricity)
	rdot, acc, dv = el.Eccentricity*vc, peakAccel(s), rounding*vp
	switch p := prop.(type) {
	case propagation.TwoBody:
		return rdot, acc, dv, true
	case propagation.J2:
		dO, dw, dm := p.Rates(s)
		k, w, ra := math.Abs(s.MeanMotion()+dm)/s.MeanMotion(), math.Abs(dO)+math.Abs(dw), el.ApogeeRadius()
		return rdot * k, k*k*acc + 2*w*k*vp + 2*w*w*ra, dv + math.Abs(k-1)*vp + w*ra, true
	}
	return rdot, acc, dv, false
}

// knotBound bounds, for s under prop, how far the build kernel's Hermite
// interpolant over knots h seconds apart (positionAt) lies from the orbit;
// ok only for TwoBody. Each position component is off by at most
// (h⁴/384)·max‖r⁗‖, and with r̈ = −u·r, u = μ/r³:
//
//	r⁗ = −ü·r − 2u̇·v + u²·r,  u̇ = −3μṙ/r⁴,  ü = 12μṙ²/r⁵ − 3μr̈_r/r⁴,
//
// where ṙ² ≤ e²μ/p, |r̈_r| = (μ/r²)|e·cos f| ≤ eμ/r², v ≤ v_p and r ≥ r_p give
// ‖r⁗‖ ≤ (1 + 9e + 12e²/(1+e))·μ²/r_p⁵. To that ε adds the float32 rounding of
// the stored tangents (Knots: each D is under h²‖r̈‖/2 and rounded at most
// twice, weighted by u(1−u) ≤ 1/4) and a floor for the knots' solves, the
// reference's and the arithmetic's, 1e-12·a(1+e)/(1−e): ten times what the
// solver's 1e-13 residual moves a position. J2's State returns the conic's
// velocity, not ṙ (gateBounds), so its tangents are not the curve's; Numeric
// has no bound. Both get none.
func knotBound(prop propagation.Propagator, s *propagation.Satellite, h float64) (eps float64, ok bool) {
	if _, ok := prop.(propagation.TwoBody); !ok {
		return 0, false
	}
	el := s.Elements
	e, rp, acc := el.Eccentricity, el.PerigeeRadius(), peakAccel(s)
	m4 := (1 + 9*e + 12*e*e/(1+e)) * acc * acc / rp // μ²/r_p⁵ = (μ/r_p²)²/r_p
	h2 := h * h
	return math.Sqrt2*h2*h2/384*m4 + h2*acc/(1<<26) + 1e-12*el.SemiMajorAxis*(1+e)/(1-e), true
}

// reach bounds how far from its step a grid-rule refinement window of s
// reaches: the half-width is 2·cellSize/min(|v_a|, |v_b|) (refineCandidates),
// and |v| is at least the apogee speed √(μ/p)·(1 − e).
func (r *run) reach(s *propagation.Satellite) float64 {
	el := s.Elements
	v := math.Sqrt(orbit.MuEarth/el.SemiLatusRectum()) * (1 - el.Eccentricity)
	return 2 * r.cellSize / max(v, 1e-9)
}

// sweepCells appends to buf the candidate pairs of sorted cells [lo, hi) at the
// step that the gate keeps, and adds those each test drops to gated: every
// pair inside a cell, and every pair between a cell and its thirteen upper
// half-neighbours (walkCells). members are the entries the cells' ranges
// index.
func sweepCells(cells, members []lockfree.Cell, gate radialGate, lo, hi int, step uint32, fieldBits int, buf []uint64, gated *gateCounts) []uint64 {
	radial, motion := 0, 0
	for _, c := range cells[lo:hi] { // the pairs inside c
		for y := c.Lo + 1; y < c.Hi; y++ {
			buf = gate.pairs(buf, members, y, c.Lo, y, step, &radial, &motion)
		}
	}
	walkCells(cells, lo, hi, fieldBits, func(c, nb lockfree.Cell) {
		for y := nb.Lo; y < nb.Hi; y++ {
			buf = gate.pairs(buf, members, y, c.Lo, c.Hi, step, &radial, &motion)
		}
	})
	gated.radial.Add(int64(radial))
	gated.motion.Add(int64(motion))
	return buf
}

// walkCells calls cross(c, nb) for every cell c of key-sorted cells [lo, hi)
// and every later cell nb, which may lie past hi, whose key is c's own (a
// listing join's entries repeat keys; the sweep's cells do not) or one of its
// thirteen upper half-neighbours' (greater keys; the other thirteen reach c
// from their side). A spatial.Grid key is x‖y‖z, z lowest, fieldBits to a
// field, so with Y = 2^fieldBits and X = 2^2·fieldBits those cells lie in two
// key ranges, one walk each:
//   - [key, key+Y+1]: the rest of column (x, y), then row (x, y+1) up to z+1;
//     the neighbours are key+1 and key+Y−1 … key+Y+1. From the successor.
//   - [key+X−Y−1, key+X+Y+1]: slab x+1's rows y−1 … y+1; the neighbours are
//     the cells with |Δz| ≤ 1. From a cursor whose start, cell to cell, only
//     grows, found by binary search, so any split into ranges gives one walk.
//
// ±1 never carries between fields, so nothing is bounds-checked, hashed or
// probed: a neighbour outside the cube is an absent key.
func walkCells(cells []lockfree.Cell, lo, hi, fieldBits int, cross func(c, nb lockfree.Cell)) {
	if lo >= hi {
		return
	}
	dy, dx := uint64(1)<<fieldBits, uint64(1)<<(2*fieldBits)
	zMask := dy - 1
	slab, _ := slices.BinarySearchFunc(cells, cells[lo].Key+dx-dy-1, func(c lockfree.Cell, k uint64) int {
		return cmp.Compare(c.Key, k)
	})
	for i := lo; i < hi; i++ {
		c := cells[i]
		for j := i + 1; j < len(cells) && cells[j].Key <= c.Key+dy+1; j++ {
			if k := cells[j].Key; k <= c.Key+1 || k >= c.Key+dy-1 {
				cross(c, cells[j])
			}
		}
		for slab < len(cells) && cells[slab].Key < c.Key+dx-dy-1 {
			slab++
		}
		for j := slab; j < len(cells) && cells[j].Key <= c.Key+dx+dy+1; j++ {
			if cells[j].Key&zMask-c.Key&zMask+1 <= 2 { // |Δz| ≤ 1
				cross(c, cells[j])
			}
		}
	}
}
