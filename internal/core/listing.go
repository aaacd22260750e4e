package core

// The knot-interval listing of a full screen (DESIGN.md §2.4). At a knot step
// the build advances every object's knots and writes its box of cells over
// the new knot interval (knotBox); at the interval's first other step a join
// of the boxes lists the objects whose box, grown by one cell, meets another's
// (listInterval), and the interval's other steps build, sort and sweep those
// alone; the knot step closing it solves every object but sweeps those alone
// too. A grid candidate at a step is a pair of Chebyshev-adjacent cells, each
// in its object's box (the closing knot is the interpolant's P1, a corner of
// the hull the box bounds), so both objects are listed: the candidates are
// those of a screen that builds every object at every step.

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/lockfree"
	"repro/internal/spatial"
	"repro/internal/vec3"
)

const (
	// maxBoxExtent is the widest box a join entry packs, in cells less one an
	// axis: five bits each for the extent and the least corner's offset.
	maxBoxExtent = 30
	// An interval that lists more than 1/listShare of the objects, or whose
	// join tests more than joinTests·N pairs (checked every joinChunk
	// entries), stops the listing (DESIGN.md §2.4 names the measurement); at
	// most maxWide boxes may be as wide as a lattice cell.
	listShare, joinTests, joinChunk, maxWide = 2, 16, 256, 4
	// The knot build counts its boxes by boxWidth, widthSlots a worker.
	widthSlots = maxBoxExtent + 2
)

// knotBox is object i's box over its current knot interval as a join entry:
// the least corner's key, i, and the extents; if the box leaves the cube or is
// wider than maxBoxExtent, Key lockfree.EmptySlot and a width above it.
func (r *run) knotBox(i int) lockfree.Cell {
	lo, hi, ok := r.intervalBox(i)
	dx, dy, dz := hi.X-lo.X, hi.Y-lo.Y, hi.Z-lo.Z
	if !ok || max(dx, dy, dz) > maxBoxExtent {
		return lockfree.Cell{Key: lockfree.EmptySlot, Lo: int32(i), Hi: maxBoxExtent + 1}
	}
	return lockfree.Cell{Key: r.grid.Key(lo), Lo: int32(i), Hi: dx | dy<<5 | dz<<10}
}

// intervalBox is the least and greatest cell of object i's box over its
// current knot interval, ok if both are in the cube: the bounding box of the
// interpolant's Bézier control points P0, P0 + w0/3, P1 − w1/3 and P1 (w = h·v,
// the chord plus Knots' D) in ECI, grown by the pad, floored.
func (r *run) intervalBox(i int) (lo, hi spatial.Coord, ok bool) {
	k, s := &r.knots[i], &r.sats[i]
	cx, cy := k.P1[0]-k.P0[0], k.P1[1]-k.P0[1]
	b0, b3 := s.FromPerifocal(k.P0), s.FromPerifocal(k.P1)
	b1 := s.FromPerifocal([2]float64{k.P0[0] + (float64(k.D0[0])+cx)/3, k.P0[1] + (float64(k.D0[1])+cy)/3})
	b2 := s.FromPerifocal([2]float64{k.P1[0] - (float64(k.D1[0])+cx)/3, k.P1[1] - (float64(k.D1[1])+cy)/3})
	least := vec3.V{X: min(b0.X, b1.X, b2.X, b3.X) - r.pad, Y: min(b0.Y, b1.Y, b2.Y, b3.Y) - r.pad, Z: min(b0.Z, b1.Z, b2.Z, b3.Z) - r.pad}
	most := vec3.V{X: max(b0.X, b1.X, b2.X, b3.X) + r.pad, Y: max(b0.Y, b1.Y, b2.Y, b3.Y) + r.pad, Z: max(b0.Z, b1.Z, b2.Z, b3.Z) + r.pad}
	lo, okLo := r.grid.CoordOf(least)
	hi, okHi := r.grid.CoordOf(most)
	return lo, hi, okLo && okHi
}

// joinState is what listInterval publishes to its forks: the lattice, the
// sorted entries and the tests made so far, over every worker.
type joinState struct {
	s, fb  int             // the lattice's 2^s cells and its key fields' bits
	sorted []lockfree.Cell // the keyed entries in key order
	tests  atomic.Int64
}

// listInterval lists into r.interval, ascending, at the first step past a knot
// step, the objects whose boxes over the interval, grown by one cell, meet
// another object's. It keys each box by its least corner on a lattice of 2^s
// cells, 2^s above every extent but maxWide boxes', so two boxes that meet sit
// in the same or adjacent lattice cells unless the lower is one of those, which
// meet every box; sorts the entries through the step's ring slot, which the
// step's build writes only afterwards; and walks them as the sweep walks cells.
// The knot build counted the widths; the keying and the walk fork on the build
// side, each worker marking its own bitset. A box it cannot pack, or too many
// listed or tested, stops the listing.
func (r *run) listInterval(slot []lockfree.Cell) error {
	var widths [widthSlots]int32 // boxes by their largest extent
	for k, n := range r.boxWidths {
		widths[k%widthSlots] += n
	}
	if widths[maxBoxExtent+1] > 0 {
		r.listing = false
		return nil
	}
	j := &r.join
	j.s = 0
	for wide := len(r.boxes) - int(widths[0]); wide > maxWide; j.s++ { // boxes at least 2^s wide
		for _, n := range widths[1<<j.s : min(2<<j.s, maxBoxExtent+1)] {
			wide -= int(n)
		}
	}
	bias := r.grid.MaxAbsCoord() + 1
	j.fb = bits.Len32(uint32((2*bias-1)>>j.s + 2)) // lattice coordinates 1 … (2·maxIdx+1)>>s + 1, and one above
	if err := r.forkBuild((*run).keyBoxes, len(r.boxes)); err != nil {
		return err
	}
	r.boxHist.keyBits = 3 * j.fb
	j.sorted = sortCells(r.boxes, slot, r.boxes, &r.boxHist)
	clear(r.boxMarks)
	j.tests.Store(0)
	if err := r.forkBuild((*run).joinRange, len(j.sorted)); err != nil {
		return err
	}
	words := len(r.boxMarks) / r.workers
	marks := r.boxMarks[:words] // the workers' marks merged into the first's
	r.interval = r.interval[:0]
	for i := range marks {
		for k := i + words; k < len(r.boxMarks); k += words {
			marks[i] |= r.boxMarks[k]
		}
		for word := marks[i]; word != 0; word &= word - 1 {
			r.interval = append(r.interval, int32(i<<6+bits.TrailingZeros64(word)))
		}
	}
	r.listing = j.tests.Load() <= joinTests*int64(len(r.sats)) && listShare*len(r.interval) <= len(r.sats)
	return nil
}

// keyBoxes keys boxes [lo, hi) as join entries on the lattice.
func (r *run) keyBoxes(_, lo, hi int) {
	s, fb, bias := uint(r.join.s), r.join.fb, r.grid.MaxAbsCoord()+1
	for k, b := range r.boxes[lo:hi] {
		c := r.grid.Coord(b.Key)
		x, y, z := uint32(c.X+bias), uint32(c.Y+bias), uint32(c.Z+bias)
		off := int32(x&(1<<s-1) | y&(1<<s-1)<<5 | z&(1<<s-1)<<10)
		r.boxes[lo+k] = lockfree.Cell{Key: uint64(x>>s+1)<<(2*fb) | uint64(y>>s+1)<<fb | uint64(z>>s+1), Lo: b.Lo, Hi: b.Hi | off<<15}
	}
}

// joinRange walks sorted entries [lo, hi) of the join, joinChunk at a time,
// into worker w's marks, and tests each of the few boxes among them as wide
// as a lattice cell against every box, until the tests of every worker pass
// joinTests·N. A worker stops only past it, so the listing's decision is the
// serial walk's.
func (r *run) joinRange(w, lo, hi int) {
	j, words := &r.join, len(r.boxMarks)/r.workers
	marks, s, budget := r.boxMarks[w*words:(w+1)*words], uint(j.s), joinTests*int64(len(r.sats))
	tests := 0
	meet := func(a, b lockfree.Cell) {
		if tests++; entriesMeet(a, b, s, j.fb) {
			bitsetSet(marks, a.Lo)
			bitsetSet(marks, b.Lo)
		}
	}
	for at := lo; at < hi && j.tests.Load() <= budget; at += joinChunk {
		end := min(at+joinChunk, hi)
		walkCells(j.sorted, at, end, j.fb, meet)
		for _, a := range j.sorted[at:end] {
			for k := 0; boxWidth(a) >= 1<<s && k < len(j.sorted); k++ {
				if j.sorted[k].Lo != a.Lo {
					meet(a, j.sorted[k])
				}
			}
		}
		j.tests.Add(int64(tests))
		tests = 0
	}
}

// boxWidth is a join entry's largest extent.
func boxWidth(b lockfree.Cell) int32 { return max(b.Hi&31, b.Hi>>5&31, b.Hi>>10&31) }

// entriesMeet reports whether the boxes of join entries a and b, keyed on a
// lattice of 2^s cells with fields fb bits wide, meet once grown by one cell:
// on every axis each one's least cell is at most one past the other's
// greatest.
func entriesMeet(a, b lockfree.Cell, s uint, fb int) bool {
	mask := uint64(1)<<fb - 1
	for axis := range 3 {
		shift, at := uint(2-axis)*uint(fb), 5*axis
		la := int32(a.Key>>shift&mask)<<s + a.Hi>>(15+at)&31
		lb := int32(b.Key>>shift&mask)<<s + b.Hi>>(15+at)&31
		if la > lb+b.Hi>>at&31+1 || lb > la+a.Hi>>at&31+1 {
			return false
		}
	}
	return true
}
