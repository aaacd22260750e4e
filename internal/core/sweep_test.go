package core

// The key-order scan against a reference that knows nothing about key order
// — a map of cells and all 26 Grid.NeighborKeys lookups per cell — and the
// sort-and-group build against the paper's: a lock-free grid set, frozen.

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/lockfree"
	"repro/internal/mathx"
	"repro/internal/orbit"
	"repro/internal/population"
	"repro/internal/propagation"
	"repro/internal/spatial"
	"repro/internal/vec3"
)

// entriesOf is a step's entry buffer: object i (ID i) in cell coords[i] of g.
func entriesOf(g *spatial.Grid, coords []spatial.Coord) []lockfree.Cell {
	entries := make([]lockfree.Cell, len(coords))
	for i, c := range coords {
		entries[i] = lockfree.Cell{Key: g.Key(c), Lo: int32(i)}
	}
	return entries
}

// histFor is sortCells' scratch for keys of g.
func histFor(g *spatial.Grid) *sortHist { return &sortHist{keyBits: 3 * g.FieldBits()} }

// groupedCells is a step's build as the detectors run it: the entry buffer,
// sorted and grouped.
func groupedCells(g *spatial.Grid, coords []spatial.Coord) ([]lockfree.Cell, []int32) {
	n := len(coords)
	ids := make([]int32, n)
	return groupCells(sortCells(entriesOf(g, coords), make([]lockfree.Cell, n), make([]lockfree.Cell, n), histFor(g)), ids, make([]float32, n)), ids
}

// openGate keeps every pair; row i carries ID i.
func openGate(n int) radialGate {
	rows := make([]lockfree.GateRow, n)
	for i := range rows {
		rows[i].ID = int32(i)
	}
	return radialGate{rows: rows, g: float32(math.Inf(1))}
}

// sweepOpen is sweepCells at step 0 with every pair kept, for cells whose
// entries carry object i as index i.
func sweepOpen(cells []lockfree.Cell, ids []int32, lo, hi, fieldBits int, buf []uint64) []uint64 {
	return sweepCells(cells, ids, make([]float32, len(ids)), openGate(len(ids)), lo, hi, 0, fieldBits, buf, new(gateCounts))
}

// sortedFrozenCells is the reference build: object i (ID i) goes into cell
// coords[i] of a grid set from four racing inserters — slot and intra-cell
// order differ run to run — which is frozen in parallel; it returns the cells
// in key order with the ID array.
func sortedFrozenCells(t testing.TB, g *spatial.Grid, coords []spatial.Coord) ([]lockfree.Cell, []int32) {
	t.Helper()
	n := len(coords)
	gset := lockfree.NewGridSet(max(2*n, 1<<14), n) // 2¹⁴ slots: the parallel freeze
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 4 {
				if err := gset.Insert(g.Key(coords[i]), int32(i), int32(i), vec3.Zero); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	snap := lockfree.NewGridSnapshot(0, 0)
	snap.Freeze(gset, 4)
	cells := sortCells(snap.Cells(), make([]lockfree.Cell, n), make([]lockfree.Cell, n), histFor(g))
	return cells, snap.IDs()
}

// referencePairs is the candidate set by definition: all pairs sharing a cell
// or in adjacent cells, found by hashing all 26 neighbour keys of every cell.
func referencePairs(g *spatial.Grid, coords []spatial.Coord) []uint64 {
	byCell := map[uint64][]int32{}
	for i, c := range coords {
		byCell[g.Key(c)] = append(byCell[g.Key(c)], int32(i))
	}
	set := map[uint64]bool{}
	for key, ids := range byCell {
		for _, a := range ids {
			for _, b := range ids {
				if a < b {
					set[lockfree.PackPair(a, b, 0)] = true
				}
			}
			for _, nk := range g.NeighborKeys(g.Coord(key), nil) {
				for _, b := range byCell[nk] {
					set[lockfree.PackPair(a, b, 0)] = true
				}
			}
		}
	}
	pairs := make([]uint64, 0, len(set))
	for p := range set {
		pairs = append(pairs, p)
	}
	slices.Sort(pairs)
	return pairs
}

// sweepPopulations are the cell populations the sweep tests share.
func sweepPopulations(t testing.TB) map[string]struct {
	grid   *spatial.Grid
	coords []spatial.Coord
} {
	t.Helper()
	newGrid := func(cell, halfExtent float64) *spatial.Grid {
		g, err := spatial.NewGrid(cell, halfExtent)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	small := newGrid(10, 200)     // maxIdx 20: 6-bit fields, two digits in all
	finest := newGrid(1, 1<<20-2) // the NewGrid limit: 21-bit fields, six digits, in-cube fields next to 0 and all ones
	rng := mathx.NewSplitMix64(5)
	random := func(n int, span int32) []spatial.Coord {
		cs := make([]spatial.Coord, n)
		for i := range cs {
			cs[i] = spatial.Coord{X: int32(rng.Intn(int(2*span+1))) - span, Y: int32(rng.Intn(int(2*span+1))) - span, Z: int32(rng.Intn(int(2*span+1))) - span}
		}
		return cs
	}
	var block, shellCells []spatial.Coord
	m := finest.MaxAbsCoord()
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			for dz := int32(-1); dz <= 1; dz++ {
				block = append(block, spatial.Coord{X: 4 + dx, Y: -7 + dy, Z: dz}, spatial.Coord{X: 4 + dx, Y: -7 + dy, Z: dz})
				// Every face, edge and corner cell of the cube (one of dx, dy,
				// dz non-zero), its inward neighbour, and the cell a carry out
				// of the z or y field would wrongly reach.
				if dx != 0 || dy != 0 || dz != 0 {
					c := spatial.Coord{X: dx * m, Y: dy * m, Z: dz * m}
					in := spatial.Coord{X: dx * (m - 1), Y: dy * (m - 1), Z: dz * (m - 1)}
					shellCells = append(shellCells, c, in, spatial.Coord{X: c.X, Y: c.Y + 1, Z: -c.Z}, spatial.Coord{X: c.X + 1, Y: -c.Y, Z: c.Z})
				}
			}
		}
	}
	inCube := shellCells[:0]
	for _, c := range shellCells {
		if max(c.X, -c.X, c.Y, -c.Y, c.Z, -c.Z) <= m {
			inCube = append(inCube, c)
		}
	}

	// A debris cloud a minute after breakup: hundreds of objects per cell.
	frags, err := population.Fragmentation(population.FragmentationConfig{
		Parent:        orbit.Elements{SemiMajorAxis: 7100, Eccentricity: 0.001, Inclination: 1.7, RAAN: 1, ArgPerigee: 0.5, MeanAnomaly: 0.3},
		TimeOfBreakup: -60, N: 600, DeltaVKmS: 0.05, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	shell := newGrid(spatial.CellSize(2, 1), 8000)
	debris := make([]spatial.Coord, len(frags))
	for i := range frags {
		pos, _ := propagation.TwoBody{}.State(&frags[i], 0)
		c, ok := shell.CoordOf(pos)
		if !ok {
			t.Fatalf("fragment %d outside the cube", i)
		}
		debris[i] = c
	}

	return map[string]struct {
		grid   *spatial.Grid
		coords []spatial.Coord
	}{
		"random-dense":     {small, random(1500, 4)},
		"random-sparse":    {small, random(1500, 20)},
		"random-finest":    {finest, random(400, 3)},
		"block-3x3x3":      {small, block},
		"one-cell":         {small, []spatial.Coord{{X: 2, Y: 2, Z: 2}, {X: 2, Y: 2, Z: 2}, {X: 2, Y: 2, Z: 2}}},
		"one-object":       {small, []spatial.Coord{{}}},
		"two-cells":        {small, []spatial.Coord{{X: 1, Y: 1, Z: 1}, {X: 2, Y: 0, Z: 2}}},
		"two-cells-apart":  {small, []spatial.Coord{{X: 1, Y: 1, Z: 1}, {X: 1, Y: 1, Z: 3}}},
		"straddling-zero":  {small, random(300, 1)},
		"cube-shell":       {finest, inCube},
		"cube-shell-small": {small, append(random(2000, 20), random(2000, 20)...)},
		"debris":           {shell, debris},
	}
}

// TestSweepMatchesNeighborReference: sort, group, sweep in parallel ranges —
// the result is exactly the reference pair set, each pair once (the half
// neighbourhood visits an adjacent cell pair from one side only).
func TestSweepMatchesNeighborReference(t *testing.T) {
	for name, p := range sweepPopulations(t) {
		t.Run(name, func(t *testing.T) {
			cells, ids := groupedCells(p.grid, p.coords)
			// Swept the way a run does: three workers pulling ranges.
			bufs := make([][]uint64, 3)
			err := new(forkJoin).do(context.Background(), len(bufs), len(cells), func(w, lo, hi int) {
				bufs[w] = sweepOpen(cells, ids, lo, hi, p.grid.FieldBits(), bufs[w])
			})
			if err != nil {
				t.Fatal(err)
			}
			got := slices.Concat(bufs...)
			slices.Sort(got)
			want := referencePairs(p.grid, p.coords)
			if name == "debris" && len(want) < 50*len(p.coords) {
				t.Fatalf("debris cloud has %d pairs over %d objects: not dense", len(want), len(p.coords))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("sweep emitted %d pairs (%d distinct), reference has %d", len(got), len(slices.Compact(slices.Clone(got))), len(want))
			}
		})
	}
}

// TestSweepSplitInvariant: however [0, n) is cut into ranges — empty and
// single-cell ones included — the ranges' pairs add up to the one-range sweep.
func TestSweepSplitInvariant(t *testing.T) {
	rng := mathx.NewSplitMix64(17)
	for name, p := range sweepPopulations(t) {
		cells, ids := groupedCells(p.grid, p.coords)
		n := len(cells)
		want := sweepOpen(cells, ids, 0, n, p.grid.FieldBits(), nil)
		slices.Sort(want)
		singles := make([]int, n+1)
		for i := range singles {
			singles[i] = i
		}
		partitions := [][]int{singles, {0, 0, n, n}, {0, n / 2, n / 2, n}}
		for trial := 0; trial < 8; trial++ {
			cuts := []int{0, n}
			for k := rng.Intn(6); k > 0; k-- {
				cuts = append(cuts, rng.Intn(n+1))
			}
			slices.Sort(cuts)
			partitions = append(partitions, cuts)
		}
		for _, cuts := range partitions {
			var got []uint64
			for i := 1; i < len(cuts); i++ {
				got = sweepOpen(cells, ids, cuts[i-1], cuts[i], p.grid.FieldBits(), got)
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: cuts %v give %d pairs, one range %d", name, cuts, len(got), len(want))
			}
		}
	}
}

// sortLengths are the list lengths TestSortCells sorts: every one to 70, each
// side of every power of two from 16 to 4,096 — where the digit widens — and
// a full screen's 16k and 100k.
func sortLengths() []int {
	var ns []int
	for n := range 71 {
		ns = append(ns, n)
	}
	for b := 4; b <= 12; b++ {
		ns = append(ns, 1<<b-1, 1<<b, 1<<b+1)
	}
	return append(ns, 16_000, 100_000)
}

// TestSortCells: over every key layout of keyLayoutMaxIdx and one of every
// FieldBits a grid can have, 3 to 21, and every length of sortLengths, so
// every digit width, the output is the input's in-cube entries stably sorted
// by key, whichever buffer it lands in, and the input is left as it was.
func TestSortCells(t *testing.T) {
	rng := mathx.NewSplitMix64(23)
	landed := map[string]bool{}
	layouts, widths := slices.Clone(keyLayoutMaxIdx), map[int]bool{}
	for fb := 3; fb <= 21; fb++ {
		layouts = append(layouts, 1<<(fb-2)) // 2·maxIdx+2 = 2^(fb−1)+2
	}
	for _, maxIdx := range layouts {
		g := keyLayoutGrid(t, maxIdx)
		hist := histFor(g)
		widths[g.FieldBits()] = true
		for _, n := range sortLengths() {
			src := make([]lockfree.Cell, n)
			for i := range src {
				c := spatial.Coord{X: int32(rng.Intn(int(2*maxIdx+1))) - maxIdx, Y: int32(rng.Intn(int(2*maxIdx+1))) - maxIdx, Z: int32(rng.Intn(int(2*maxIdx+1))) - maxIdx}
				src[i] = lockfree.Cell{Key: g.Key(c), Lo: int32(i), Hi: int32(i + 1)}
				if rng.Intn(8) == 0 { // out of the cube
					src[i].Key = lockfree.EmptySlot
				}
			}
			if n >= 2 { // the extreme corners, wherever they were drawn
				src[0].Key = g.Key(spatial.Coord{X: maxIdx, Y: maxIdx, Z: maxIdx})
				src[n-1].Key = g.Key(spatial.Coord{X: -maxIdx, Y: -maxIdx, Z: -maxIdx})
			}
			before := slices.Clone(src)
			want := slices.DeleteFunc(slices.Clone(src), func(c lockfree.Cell) bool { return c.Key == lockfree.EmptySlot })
			slices.SortStableFunc(want, func(x, y lockfree.Cell) int { return cmp.Compare(x.Key, y.Key) })

			a, b := make([]lockfree.Cell, n, n+3), make([]lockfree.Cell, n)
			got := sortCells(src, a, b, hist)
			if !slices.Equal(got, want) {
				t.Fatalf("maxIdx %d, %d cells: output is not the stably sorted input", maxIdx, n)
			}
			if !slices.Equal(src, before) {
				t.Fatalf("maxIdx %d, %d cells: the input was written", maxIdx, n)
			}
			if len(got) > 0 {
				switch &got[0] {
				case &a[0]:
					landed["a"] = true
				case &b[0]:
					landed["b"] = true
				default:
					t.Fatalf("maxIdx %d, %d cells: output is neither buffer", maxIdx, n)
				}
			}
		}
	}
	if !landed["a"] || !landed["b"] || len(widths) != 19 {
		t.Fatalf("results landed in %v: both buffers should have been exercised; %d field widths", landed, len(widths))
	}
}

// TestSortGroupMatchesFrozenGrid: sorting and grouping an entry buffer gives
// what inserting the same objects into a GridSet, freezing it and sorting the
// cells gives — the same keys in the same order, the same IDs in each cell —
// with each cell's IDs ascending, wherever out-of-cube entries sit in the
// buffer, whichever sort buffer the result lands in, the buffer left as it was.
func TestSortGroupMatchesFrozenGrid(t *testing.T) {
	sentinel := lockfree.Cell{Key: lockfree.EmptySlot, Lo: -1}
	sentinels := func(n int) []lockfree.Cell {
		out := make([]lockfree.Cell, n)
		for i := range out {
			out[i] = sentinel
		}
		return out
	}
	patterns := map[string]func(real []lockfree.Cell) []lockfree.Cell{
		"none":  func(real []lockfree.Cell) []lockfree.Cell { return slices.Clone(real) },
		"front": func(real []lockfree.Cell) []lockfree.Cell { return append(sentinels(7), real...) },
		"back":  func(real []lockfree.Cell) []lockfree.Cell { return append(slices.Clone(real), sentinels(7)...) },
		"alternating": func(real []lockfree.Cell) (out []lockfree.Cell) {
			for _, e := range real {
				out = append(out, sentinel, e)
			}
			return append(out, sentinel)
		},
		"all": func(real []lockfree.Cell) []lockfree.Cell { return sentinels(len(real)) },
	}
	landed := map[string]bool{}
	for name, p := range sweepPopulations(t) {
		real := entriesOf(p.grid, p.coords)
		wantCells, wantIDs := sortedFrozenCells(t, p.grid, p.coords)
		for pattern, place := range patterns {
			entries := place(real)
			before := slices.Clone(entries)
			a, b, ids := make([]lockfree.Cell, len(entries)), make([]lockfree.Cell, len(entries)+2), make([]int32, len(entries))
			sorted := sortCells(entries, a, b, histFor(p.grid))
			if !slices.Equal(entries, before) {
				t.Fatalf("%s/%s: the entry buffer was written", name, pattern)
			}
			if pattern == "all" {
				if cells := groupCells(sorted, ids, make([]float32, len(ids))); len(cells) != 0 {
					t.Fatalf("%s/all: %d cells from sentinel entries", name, len(cells))
				}
				continue
			}
			if len(sorted) != len(real) {
				t.Fatalf("%s/%s: %d entries after the sort, want %d", name, pattern, len(sorted), len(real))
			}
			switch &sorted[0] {
			case &a[0]:
				landed["a"] = true
			case &b[0]:
				landed["b"] = true
			default:
				t.Fatalf("%s/%s: output is neither buffer", name, pattern)
			}
			cells := groupCells(sorted, ids, make([]float32, len(ids)))
			if len(cells) != len(wantCells) {
				t.Fatalf("%s/%s: %d cells, frozen grid has %d", name, pattern, len(cells), len(wantCells))
			}
			for c, cell := range cells {
				got, want := ids[cell.Lo:cell.Hi], slices.Clone(wantIDs[wantCells[c].Lo:wantCells[c].Hi])
				slices.Sort(want)
				if cell.Key != wantCells[c].Key || !slices.Equal(got, want) {
					t.Fatalf("%s/%s: cell %d is key %#x IDs %v, frozen grid has key %#x IDs %v (sorted)",
						name, pattern, c, cell.Key, got, wantCells[c].Key, want)
				}
			}
		}
	}
	if !landed["a"] || !landed["b"] {
		t.Fatalf("results landed in %v: both buffers should have been exercised", landed)
	}
}
