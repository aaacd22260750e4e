package core

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/lockfree"
	"repro/internal/spatial"
)

// The candidate scan in key order. spatial.PackKey is x‖y‖z with z lowest, so
// with a step's cells sorted by key a cell's thirteen upper half-neighbours
// (those with a greater key; the other thirteen reach it from their side) are
// its successor k+1 and four runs of three consecutive keys, one per
// (dx, dy) ∈ {(0,+1), (+1,−1), (+1,0), (+1,+1)}, each starting at dz = −1.
// No key needs a bounds check: ±1 never carries between axis fields
// (spatial.CoordBits), so a neighbour outside the cube is an absent key.
const (
	keyStepY = 1 << spatial.CoordBits       // key distance to the +y neighbour
	keyStepX = 1 << (2 * spatial.CoordBits) // … and to the +x neighbour
)

// sweepRuns holds the offset from a cell's key to the start of each run.
var sweepRuns = [4]uint64{keyStepY - 1, keyStepX - keyStepY - 1, keyStepX - 1, keyStepX + keyStepY - 1}

// sortDigitBits is the radix of sortCells: 2¹¹ counters are 8 KiB of stack,
// and eleven bits cover an axis of up to 2,048 cells in one pass.
const sortDigitBits = 11

// sortCells returns src's entries in ascending key order, in a or b (each at
// least len(src) long), minus the lockfree.EmptySlot entries of out-of-cube
// objects, which the first pass drops (there is one: spatial.NewGrid gives
// maxIdx ≥ 1); src is only read. It is a stable LSD radix sort planned from
// the grid geometry: cell indices lie in [−maxIdx, maxIdx] on every axis, so
// with the minimum corner's key subtracted each axis field is below 2·maxIdx+1
// and sorts in ⌈bits/11⌉ passes — three in all up to 2¹¹ cells per axis, six
// beyond. (Digits taken from the whole key, or from the key minus the
// smallest key, need five or six: biased coordinates straddle 2²⁰.)
func sortCells(src, a, b []lockfree.Cell, maxIdx int32) []lockfree.Cell {
	base := spatial.PackKey(spatial.Coord{X: -maxIdx, Y: -maxIdx, Z: -maxIdx})
	fieldBits := bits.Len32(uint32(2 * maxIdx))
	var hist [1 << sortDigitBits]int32
	from, to, spare := src, a, b
	for field := 0; field < 3; field++ {
		for lo := 0; lo < fieldBits; lo += sortDigitBits {
			shift := field*spatial.CoordBits + lo
			mask := uint64(1)<<min(sortDigitBits, fieldBits-lo) - 1
			clear(hist[:])
			for i := range from {
				if from[i].Key != lockfree.EmptySlot {
					hist[(from[i].Key-base)>>shift&mask]++
				}
			}
			at := int32(0)
			for d, n := range hist[:mask+1] {
				hist[d], at = at, at+n
			}
			for i := range from {
				if from[i].Key != lockfree.EmptySlot {
					d := (from[i].Key - base) >> shift & mask
					to[hist[d]] = from[i]
					hist[d]++
				}
			}
			from, to, spare = to[:at], spare, to
		}
	}
	return from
}

// groupCells turns sorted {key, ID} entries into cells, in place: each run of
// equal keys becomes one Cell{Key, Lo, Hi} at the front of sorted (written at
// or before the run's first entry, after the run was read) with its IDs, in
// the entries' order, in ids[Lo:Hi]. ids is at least len(sorted) long.
func groupCells(sorted []lockfree.Cell, ids []int32) []lockfree.Cell {
	cells := 0
	for i := 0; i < len(sorted); cells++ {
		key, lo := sorted[i].Key, i
		for ; i < len(sorted) && sorted[i].Key == key; i++ {
			ids[i] = sorted[i].Lo
		}
		sorted[cells] = lockfree.Cell{Key: key, Lo: int32(lo), Hi: int32(i)}
	}
	return sorted[:cells]
}

// sweepCells appends to buf the candidate pairs of sorted cells [lo, hi) at
// the given step: every pair inside a cell, and every pair between a cell and
// its upper half-neighbours, which may lie past hi. ids is the array the
// cells' ranges index. One cursor per run walks the list: cell to cell a
// run's start only grows, so nothing is hashed and no absent cell probed. The
// cursors start by binary search, so any partition of the list into ranges
// yields the pairs of one sweep.
func sweepCells(cells []lockfree.Cell, ids []int32, lo, hi int, step uint32, buf []uint64) []uint64 {
	if lo >= hi {
		return buf
	}
	var cur [len(sweepRuns)]int
	for r, off := range sweepRuns {
		cur[r], _ = slices.BinarySearchFunc(cells, cells[lo].Key+off, func(c lockfree.Cell, k uint64) int {
			return cmp.Compare(c.Key, k)
		})
	}
	cross := func(cell []int32, nb lockfree.Cell) {
		for _, nid := range ids[nb.Lo:nb.Hi] {
			for _, cid := range cell {
				buf = append(buf, lockfree.PackPair(cid, nid, step))
			}
		}
	}
	for i := lo; i < hi; i++ {
		key, cell := cells[i].Key, ids[cells[i].Lo:cells[i].Hi]
		for x := range cell {
			for _, other := range cell[x+1:] {
				buf = append(buf, lockfree.PackPair(cell[x], other, step))
			}
		}
		if i+1 < len(cells) && cells[i+1].Key == key+1 {
			cross(cell, cells[i+1])
		}
		for r, off := range sweepRuns {
			start, j := key+off, cur[r]
			for j < len(cells) && cells[j].Key < start {
				j++
			}
			cur[r] = j
			for ; j < len(cells) && cells[j].Key <= start+2; j++ {
				cross(cell, cells[j])
			}
		}
	}
	return buf
}
