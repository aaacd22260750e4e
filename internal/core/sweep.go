package core

import (
	"cmp"
	"slices"

	"repro/internal/lockfree"
)

// sortDigitBits is the radix of sortCells.
const sortDigitBits = 11

// radixHist is one sortCells pass's digit histogram.
type radixHist [1 << sortDigitBits]int32

// sortPasses is how many digits sortCells takes of a key whose fields are
// fieldBits wide: three up to maxIdx 1,022, four up to 8,190, six at most.
func sortPasses(fieldBits int) int { return (3*fieldBits + sortDigitBits - 1) / sortDigitBits }

// sortCells returns src's entries in ascending key order, in a or b (each at
// least len(src) long), minus the lockfree.EmptySlot entries of out-of-cube
// objects, which the first pass drops; src is only read. It is a stable LSD
// radix sort of the key as one integer, one pass per histogram of hist (the
// caller's scratch, sortPasses long). One walk counts four digits' histograms
// — every digit up to maxIdx 8,190 — so each pass is a scatter only.
func sortCells(src, a, b []lockfree.Cell, hist []radixHist) []lockfree.Cell {
	const mask = 1<<sortDigitBits - 1
	clear(hist)
	var dump radixHist // counts of digits past the key's top, which are all zero
	n := int32(0)
	for g := 0; g < len(hist); g += 4 {
		h := [4]*radixHist{&dump, &dump, &dump, &dump}
		for p := g; p < min(g+4, len(hist)); p++ {
			h[p-g] = &hist[p]
		}
		n = 0
		for i := range src {
			if k := src[i].Key; k != lockfree.EmptySlot {
				n++
				k >>= g * sortDigitBits
				h[0][k&mask]++
				h[1][k>>sortDigitBits&mask]++
				h[2][k>>(2*sortDigitBits)&mask]++
				h[3][k>>(3*sortDigitBits)&mask]++
			}
		}
	}
	for p := range hist {
		at := int32(0)
		for d, c := range hist[p] {
			hist[p][d], at = at, at+c
		}
	}
	from, to, spare := src, a, b
	for p := range hist {
		shift, next := p*sortDigitBits, &hist[p]
		for i := range from {
			if k := from[i].Key; k != lockfree.EmptySlot { // only the first pass meets one
				d := k >> shift & mask
				to[next[d]] = from[i]
				next[d]++
			}
		}
		from, to, spare = to[:n], spare, to
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
// its thirteen upper half-neighbours (greater keys; the other thirteen reach it
// from their side), which may lie past hi. ids is the array the cells' ranges
// index. A spatial.Grid key is x‖y‖z, z lowest, fieldBits to a field, so with
// Y = 2^fieldBits and X = 2^2·fieldBits those neighbours lie in two key ranges,
// one walk each:
//   - (key, key+Y+1]: the rest of column (x, y), then row (x, y+1) up to z+1;
//     the neighbours are key+1 and key+Y−1 … key+Y+1. From the successor.
//   - [key+X−Y−1, key+X+Y+1]: slab x+1's rows y−1 … y+1; the neighbours are
//     the cells with |Δz| ≤ 1. From a cursor whose start, cell to cell, only
//     grows, found by binary search, so any split into ranges gives one sweep.
//
// ±1 never carries between fields, so nothing is bounds-checked, hashed or
// probed: a neighbour outside the cube is an absent key.
func sweepCells(cells []lockfree.Cell, ids []int32, lo, hi int, step uint32, fieldBits int, buf []uint64) []uint64 {
	if lo >= hi {
		return buf
	}
	dy, dx := uint64(1)<<fieldBits, uint64(1)<<(2*fieldBits)
	zMask := dy - 1
	slab, _ := slices.BinarySearchFunc(cells, cells[lo].Key+dx-dy-1, func(c lockfree.Cell, k uint64) int {
		return cmp.Compare(c.Key, k)
	})
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
		for j := i + 1; j < len(cells) && cells[j].Key <= key+dy+1; j++ {
			if k := cells[j].Key; k == key+1 || k >= key+dy-1 {
				cross(cell, cells[j])
			}
		}
		for slab < len(cells) && cells[slab].Key < key+dx-dy-1 {
			slab++
		}
		for j := slab; j < len(cells) && cells[j].Key <= key+dx+dy+1; j++ {
			if cells[j].Key&zMask-key&zMask+1 <= 2 { // |Δz| ≤ 1
				cross(cell, cells[j])
			}
		}
	}
	return buf
}
