// Package kdtree implements a three-dimensional k-d tree over satellite
// positions — the alternative spatial index of the related work the paper
// argues against (§II/IV-A: Budianto-Ho et al. use k-d trees and spatial
// hashing; "octrees or Kd-trees … must be recreated each time an object
// moves, requiring higher computational cost at each iteration").
//
// The tree exists to make that claim testable in this repository: the
// kd-based candidate generator produces the same conjunction candidates as
// the grid (it is validated against it), and the ablation benchmark
// measures rebuild+query cost against grid reset+insert+scan per sampling
// step (DESIGN.md §8).
//
// The implementation is a classic median-split static tree built over one
// sampling step's positions: O(n log n) construction with an in-place
// nth-element partition, and range queries by axis-aligned ball pruning.
package kdtree

import (
	"repro/internal/vec3"
)

// Point is one indexed satellite position.
type Point struct {
	ID  int32
	Pos vec3.V
}

// Tree is a static 3-d k-d tree. Build once per sampling step; queries are
// read-only and safe for concurrent use.
type Tree struct {
	pts []Point // reordered into tree layout
	// nodes[i] splits pts[lo:hi] at the median along axis = depth % 3;
	// the layout is implicit (binary heap over index ranges), so no node
	// structs are stored at all.
}

// Build constructs the tree, taking ownership of pts (the slice is
// reordered in place).
func Build(pts []Point) *Tree {
	t := &Tree{pts: pts}
	t.build(0, len(pts), 0)
	return t
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return len(t.pts) }

func axisValue(p vec3.V, axis int) float64 {
	switch axis {
	case 0:
		return p.X
	case 1:
		return p.Y
	default:
		return p.Z
	}
}

// build recursively median-partitions pts[lo:hi] on the given axis.
func (t *Tree) build(lo, hi, axis int) {
	if hi-lo <= 1 {
		return
	}
	mid := (lo + hi) / 2
	t.nthElement(lo, hi, mid, axis)
	next := (axis + 1) % 3
	t.build(lo, mid, next)
	t.build(mid+1, hi, next)
}

// nthElement partially sorts pts[lo:hi] so the element at index n is the
// one that belongs there in sorted-by-axis order (quickselect with median-
// of-three pivoting; average O(hi-lo)).
func (t *Tree) nthElement(lo, hi, n, axis int) {
	pts := t.pts
	for hi-lo > 2 {
		// Median-of-three pivot.
		mid := (lo + hi) / 2
		a, b, c := axisValue(pts[lo].Pos, axis), axisValue(pts[mid].Pos, axis), axisValue(pts[hi-1].Pos, axis)
		var pivotIdx int
		switch {
		case (a <= b) == (b <= c):
			pivotIdx = mid
		case (b <= a) == (a <= c):
			pivotIdx = lo
		default:
			pivotIdx = hi - 1
		}
		pts[pivotIdx], pts[hi-1] = pts[hi-1], pts[pivotIdx]
		pivot := axisValue(pts[hi-1].Pos, axis)
		// Hoare-ish partition.
		store := lo
		for i := lo; i < hi-1; i++ {
			if axisValue(pts[i].Pos, axis) < pivot {
				pts[i], pts[store] = pts[store], pts[i]
				store++
			}
		}
		pts[store], pts[hi-1] = pts[hi-1], pts[store]
		switch {
		case store == n:
			return
		case store < n:
			lo = store + 1
		default:
			hi = store
		}
	}
	// Tiny range: insertion sort.
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && axisValue(pts[j].Pos, axis) < axisValue(pts[j-1].Pos, axis); j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
}

// InRadius appends every indexed point within radius of center to dst and
// returns the extended slice.
func (t *Tree) InRadius(center vec3.V, radius float64, dst []Point) []Point {
	return t.inRadius(0, len(t.pts), 0, center, radius, radius*radius, dst)
}

func (t *Tree) inRadius(lo, hi, axis int, center vec3.V, r, r2 float64, dst []Point) []Point {
	if hi <= lo {
		return dst
	}
	mid := (lo + hi) / 2
	p := t.pts[mid]
	if p.Pos.Dist2(center) <= r2 {
		dst = append(dst, p)
	}
	if hi-lo == 1 {
		return dst
	}
	next := (axis + 1) % 3
	split := axisValue(p.Pos, axis)
	cv := axisValue(center, axis)
	if cv-r <= split {
		dst = t.inRadius(lo, mid, next, center, r, r2, dst)
	}
	if cv+r >= split {
		dst = t.inRadius(mid+1, hi, next, center, r, r2, dst)
	}
	return dst
}

// PairsWithin calls fn for every unordered pair of indexed points whose
// distance is at most radius, visiting each pair exactly once (idA < idB
// by tree order of discovery, deduplicated by requiring the query point's
// index to be the smaller tree position). This is the kd-tree counterpart
// of the grid's candidate generation.
func (t *Tree) PairsWithin(radius float64, fn func(a, b Point)) {
	var buf []Point
	for i := range t.pts {
		buf = t.InRadius(t.pts[i].Pos, radius, buf[:0])
		for _, q := range buf {
			if q.ID > t.pts[i].ID {
				fn(t.pts[i], q)
			}
		}
	}
}
