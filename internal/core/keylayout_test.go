package core

// The scan and the key track over the range of key layouts a grid can have:
// spatial.Grid packs its keys dense to its own extent, so the field width, the
// radix pass count and the track's move table all follow maxIdx.

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/mathx"
	"repro/internal/spatial"
)

// keyLayoutMaxIdx are the layouts checked: the smallest cube; 765, the LEO
// shell of the 2 km / 1 s grid; 1,022 and 1,023, the last 11-bit field and the
// first whose 2·maxIdx+2 is a power of two; 1,024; 4,593, the same grid out to
// GEO (14-bit fields, four passes); and the NewGrid limit, 21-bit fields.
var keyLayoutMaxIdx = []int32{1, 765, 1022, 1023, 1024, 4593, 1<<20 - 2}

// keyLayoutGrid returns the grid of 1 km cells whose cube is ±maxIdx cells.
func keyLayoutGrid(t testing.TB, maxIdx int32) *spatial.Grid {
	t.Helper()
	g, err := spatial.NewGrid(1, float64(maxIdx))
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxAbsCoord() != maxIdx {
		t.Fatalf("grid has maxIdx %d, want %d", g.MaxAbsCoord(), maxIdx)
	}
	return g
}

// faceCells are the cube's centre and its face, edge and corner cells, one per
// direction, scaled by m.
func faceCells(m int32) []spatial.Coord {
	var cs []spatial.Coord
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			for dz := int32(-1); dz <= 1; dz++ {
				cs = append(cs, spatial.Coord{X: dx * m, Y: dy * m, Z: dz * m})
			}
		}
	}
	return cs
}

// TestKeyLayouts: for each layout, every face and corner cell reaches its 26
// neighbours by adding fixed key offsets with no carry between fields (an
// out-of-cube neighbour's key is one NeighborKeys never yields); every move of
// the track's byte code round-trips; and sorting, grouping and sweeping cells
// clustered against the faces, in ranges split any way, gives exactly the
// 26-neighbour reference pairs.
func TestKeyLayouts(t *testing.T) {
	rng := mathx.NewSplitMix64(29)
	for _, m := range keyLayoutMaxIdx {
		t.Run(fmt.Sprint(m), func(t *testing.T) {
			g := keyLayoutGrid(t, m)
			fb := g.FieldBits()
			inCube := func(c spatial.Coord) bool { return max(c.X, -c.X, c.Y, -c.Y, c.Z, -c.Z) <= m }

			for _, c := range faceCells(m) {
				listed := map[uint64]bool{}
				for _, k := range g.NeighborKeys(c, nil) {
					listed[k] = true
				}
				for dx := int64(-1); dx <= 1; dx++ {
					for dy := int64(-1); dy <= 1; dy++ {
						for dz := int64(-1); dz <= 1; dz++ {
							want := spatial.Coord{X: c.X + int32(dx), Y: c.Y + int32(dy), Z: c.Z + int32(dz)}
							sum := g.Key(c) + uint64(dx<<(2*fb)+dy<<fb+dz)
							if got := g.Coord(sum); got != want {
								t.Fatalf("centre %+v offset (%d,%d,%d): key sum decodes to %+v, want %+v", c, dx, dy, dz, got, want)
							}
							if listed[sum] != (want != c && inCube(want)) {
								t.Fatalf("centre %+v: neighbour %+v listed %v, in the cube %v", c, want, listed[sum], inCube(want))
							}
						}
					}
				}
			}

			checkMoveCodes(t, g)

			var coords []spatial.Coord
			for _, c := range faceCells(m) {
				for k := 0; k < 12; k++ {
					near := spatial.Coord{X: c.X + int32(rng.Intn(5)) - 2, Y: c.Y + int32(rng.Intn(5)) - 2, Z: c.Z + int32(rng.Intn(5)) - 2}
					// The cell a carry out of the z or the y field would wrongly reach.
					carry := []spatial.Coord{near, {X: near.X, Y: near.Y + 1, Z: -near.Z}, {X: near.X + 1, Y: -near.Y, Z: near.Z}}
					for _, cc := range carry {
						if inCube(cc) {
							coords = append(coords, cc)
						}
					}
				}
			}
			cells, ids := groupedCells(g, coords)
			want := referencePairs(g, coords)
			n := len(cells)
			for trial := 0; trial < 6; trial++ {
				cuts := []int{0, n}
				for k := rng.Intn(8); k > 0; k-- {
					cuts = append(cuts, rng.Intn(n+1))
				}
				slices.Sort(cuts)
				bufs := make([][]uint64, len(cuts)-1)
				err := new(forkJoin).do(context.Background(), len(bufs), len(bufs), func(w, lo, hi int) {
					for r := lo; r < hi; r++ {
						bufs[r] = sweepOpen(cells, ids, cuts[r], cuts[r+1], fb, bufs[r])
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				got := slices.Concat(bufs...)
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("cuts %v: sweep emitted %d pairs, reference has %d", cuts, len(got), len(want))
				}
			}
		})
	}
}
