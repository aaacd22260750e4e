// Package spatial implements the uniform-grid geometry of §III-A/§IV-A: the
// cell-size rule of Eq. 1, the mapping from ECI positions to cells, the
// packing of three signed cell coordinates into a single 64-bit key (the
// hash-map key of Fig. 6) dense to the grid's own extent, and 26-neighbour
// enumeration.
//
// The grid is purely geometric; the concurrent storage that backs it lives
// in package lockfree.
package spatial

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/orbit"
	"repro/internal/vec3"
)

// DefaultHalfExtent is half the edge length (km) of the default simulation
// cube: the paper's "(85,000 km)³" space covering everything up to and
// beyond the geostationary orbit.
const DefaultHalfExtent = 42500.0

// maxFieldBits bounds a key's axis field: three fit a 63-bit key, which can
// never equal lockfree.EmptySlot (all ones), and ±2²⁰ cells per axis support
// cell sizes down to ~40 m over the default cube — far below any realistic
// screening threshold.
const maxFieldBits = 21

// CellSize implements Eq. 1: g_c = d + 7.8·s_ps, the smallest cell size (km)
// that guarantees two satellites closing at twice the typical LEO speed
// cannot skip from "more than a cell apart" to "more than a cell apart on
// the other side" between consecutive samples while undercutting the
// screening threshold d in between.
func CellSize(thresholdKm, secondsPerSample float64) float64 {
	return thresholdKm + orbit.LEOSpeed*secondsPerSample
}

// Grid maps positions to cells of a cube [-HalfExtent, +HalfExtent]³.
//
// The grid owns its key layout. A key is x‖y‖z, z lowest, each field
// FieldBits() = bits.Len32(2·maxIdx+2) wide and holding its coordinate biased
// by maxIdx+1. So ascending key order is lexicographic (x, y, z) order, and a
// cell's +z, +y and +x neighbours sit 1, 2^fb and 2^2fb above it. An in-cube
// field lies in [1, 2·maxIdx+1], so adding or subtracting one from it never
// carries into the field beside it, and the key a cell on the cube's face
// computes for a neighbour outside the cube (field 0 or 2·maxIdx+2) is simply
// a key nothing was built under.
type Grid struct {
	cell       float64 // edge length of one cell, km
	invCell    float64
	halfExtent float64
	maxIdx     int32 // cells span [-maxIdx, +maxIdx] per axis
	fb         uint  // key bits per axis field
}

// NewGrid returns a grid with the given cell size (km) and half extent (km).
// halfExtent ≤ 0 selects DefaultHalfExtent.
func NewGrid(cellSize, halfExtent float64) (*Grid, error) {
	if cellSize <= 0 || math.IsNaN(cellSize) || math.IsInf(cellSize, 0) {
		return nil, fmt.Errorf("spatial: cell size %g must be positive and finite", cellSize)
	}
	if halfExtent <= 0 {
		halfExtent = DefaultHalfExtent
	}
	const limit = 1<<(maxFieldBits-1) - 2 // the largest maxIdx whose 2·maxIdx+2 fits a field
	cells := math.Ceil(halfExtent / cellSize)
	if cells > limit {
		return nil, fmt.Errorf("spatial: cell size %g km too small for extent %g km (needs %.0f cells/axis, max %d)",
			cellSize, halfExtent, cells, limit)
	}
	maxIdx := int32(cells)
	return &Grid{cell: cellSize, invCell: 1 / cellSize, halfExtent: halfExtent, maxIdx: maxIdx,
		fb: uint(bits.Len32(uint32(2*maxIdx + 2)))}, nil
}

// HalfExtent returns the half edge length of the simulation cube in km.
func (g *Grid) HalfExtent() float64 { return g.halfExtent }

// CellsPerAxis returns the number of cells along one axis.
func (g *Grid) CellsPerAxis() int { return int(2*g.maxIdx + 1) }

// Coord is a signed three-dimensional cell coordinate.
type Coord struct {
	X, Y, Z int32
}

// CoordOf returns the cell coordinate containing pos and whether pos lies
// inside the simulation cube. Out-of-cube positions (e.g. the apogee arc of
// a Molniya orbit beyond the configured extent) return ok == false and are
// skipped by the detectors — matching the paper's fixed simulation space.
func (g *Grid) CoordOf(pos vec3.V) (Coord, bool) {
	cx := int32(math.Floor(pos.X * g.invCell))
	cy := int32(math.Floor(pos.Y * g.invCell))
	cz := int32(math.Floor(pos.Z * g.invCell))
	if !g.inRange(cx) || !g.inRange(cy) || !g.inRange(cz) {
		return Coord{}, false
	}
	return Coord{cx, cy, cz}, true
}

func (g *Grid) inRange(c int32) bool { return c >= -g.maxIdx && c <= g.maxIdx }

// KeyOf returns the packed cell key for pos, and ok == false when pos is
// outside the simulation cube.
func (g *Grid) KeyOf(pos vec3.V) (uint64, bool) {
	c, ok := g.CoordOf(pos)
	if !ok {
		return 0, false
	}
	return g.Key(c), true
}

// Key packs a cell coordinate into the grid's key layout. Coordinates one
// cell outside the cube pack too: they are the keys of absent neighbours.
func (g *Grid) Key(c Coord) uint64 {
	bias := g.maxIdx + 1
	return uint64(c.X+bias)<<(2*g.fb) | uint64(c.Y+bias)<<g.fb | uint64(c.Z+bias)
}

// Coord is the inverse of Key.
func (g *Grid) Coord(key uint64) Coord {
	bias, mask := g.maxIdx+1, uint64(1)<<g.fb-1
	return Coord{
		X: int32(key>>(2*g.fb)) - bias,
		Y: int32(key>>g.fb&mask) - bias,
		Z: int32(key&mask) - bias,
	}
}

// FieldBits returns the width of one axis field of a key: keys are below
// 2^(3·FieldBits), and the +y and +x neighbours sit 2^FieldBits and
// 2^(2·FieldBits) above a cell.
func (g *Grid) FieldBits() int { return int(g.fb) }

// NeighborKeys appends the packed keys of the up-to-26 in-bounds neighbours
// of cell c to dst and returns the extended slice. The centre cell itself is
// not included. dst should have capacity 26 to avoid allocation.
func (g *Grid) NeighborKeys(c Coord, dst []uint64) []uint64 {
	for dx := int32(-1); dx <= 1; dx++ {
		x := c.X + dx
		if !g.inRange(x) {
			continue
		}
		for dy := int32(-1); dy <= 1; dy++ {
			y := c.Y + dy
			if !g.inRange(y) {
				continue
			}
			for dz := int32(-1); dz <= 1; dz++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				z := c.Z + dz
				if !g.inRange(z) {
					continue
				}
				dst = append(dst, g.Key(Coord{x, y, z}))
			}
		}
	}
	return dst
}

// CellCenter returns the centre point of cell c in km.
func (g *Grid) CellCenter(c Coord) vec3.V {
	return vec3.V{
		X: (float64(c.X) + 0.5) * g.cell,
		Y: (float64(c.Y) + 0.5) * g.cell,
		Z: (float64(c.Z) + 0.5) * g.cell,
	}
}

// MaxAbsCoord returns the largest valid absolute cell index per axis.
func (g *Grid) MaxAbsCoord() int32 { return g.maxIdx }

// RequiredHalfExtent returns a half extent that covers every orbit in the
// given apogee list with one empty guard cell of margin, so populations with
// orbits beyond the default cube can size their grid to fit.
func RequiredHalfExtent(maxApogeeKm, cellSize float64) float64 {
	return maxApogeeKm + 2*cellSize
}
