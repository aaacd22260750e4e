package spatial

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vec3"
)

func TestCellSizeEq1(t *testing.T) {
	// d = 2 km, s_ps = 9 s → g_c = 2 + 7.8·9 = 72.2 km (the paper's default
	// hybrid parameterisation).
	if got := CellSize(2, 9); math.Abs(got-72.2) > 1e-12 {
		t.Errorf("CellSize(2,9) = %v, want 72.2", got)
	}
	if got := CellSize(2, 1); math.Abs(got-9.8) > 1e-12 {
		t.Errorf("CellSize(2,1) = %v, want 9.8", got)
	}
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(0, 0); err == nil {
		t.Error("zero cell size accepted")
	}
	if _, err := NewGrid(-1, 0); err == nil {
		t.Error("negative cell size accepted")
	}
	if _, err := NewGrid(math.NaN(), 0); err == nil {
		t.Error("NaN cell size accepted")
	}
	// 0.02 km cells over the default cube need >2^21 cells per axis.
	if _, err := NewGrid(0.02, 0); err == nil {
		t.Error("cell size overflowing coordinate bits accepted")
	}
	g, err := NewGrid(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.MaxAbsCoord(); got != DefaultHalfExtent/10 {
		t.Errorf("default cube spans ±%d cells, want ±%v", got, DefaultHalfExtent/10)
	}
}

func TestCoordOf(t *testing.T) {
	g, _ := NewGrid(10, 100)
	cases := []struct {
		pos  vec3.V
		want Coord
	}{
		{vec3.New(0, 0, 0), Coord{0, 0, 0}},
		{vec3.New(5, 5, 5), Coord{0, 0, 0}},
		{vec3.New(10, 0, 0), Coord{1, 0, 0}},
		{vec3.New(-0.001, 0, 0), Coord{-1, 0, 0}},
		{vec3.New(-10.001, 25, 99), Coord{-2, 2, 9}},
	}
	for _, c := range cases {
		got, ok := g.CoordOf(c.pos)
		if !ok {
			t.Errorf("CoordOf(%v) out of bounds", c.pos)
			continue
		}
		if got != c.want {
			t.Errorf("CoordOf(%v) = %v, want %v", c.pos, got, c.want)
		}
	}
}

func TestCoordOfOutOfBounds(t *testing.T) {
	g, _ := NewGrid(10, 100)
	for _, pos := range []vec3.V{
		vec3.New(150, 0, 0),
		vec3.New(0, -150, 0),
		vec3.New(0, 0, 1e6),
	} {
		if _, ok := g.CoordOf(pos); ok {
			t.Errorf("CoordOf(%v) accepted outside cube", pos)
		}
	}
}

// limitGrid is the finest grid NewGrid accepts over a cube of 1 km cells:
// 21-bit fields, three to a 63-bit key.
func limitGrid(t *testing.T) *Grid {
	t.Helper()
	g, err := NewGrid(1, 1<<20-2)
	if err != nil {
		t.Fatal(err)
	}
	if g.FieldBits() != maxFieldBits {
		t.Fatalf("limit grid has %d-bit fields, want %d", g.FieldBits(), maxFieldBits)
	}
	return g
}

func TestKeyCoordRoundTrip(t *testing.T) {
	small, _ := NewGrid(10, 100)
	for _, g := range []*Grid{small, limitGrid(t)} {
		m := g.MaxAbsCoord() + 1 // one cell outside the cube packs too
		for _, c := range []Coord{
			{0, 0, 0}, {1, 2, 3}, {-1, -2, -3},
			{m, m, m}, {-m, -m, -m}, {m, -m, 0},
		} {
			if got := g.Coord(g.Key(c)); got != c {
				t.Errorf("maxIdx %d: roundtrip %v → %v", m-1, c, got)
			}
		}
	}
}

func TestCoordNearIsCoordOfAwayFromFaces(t *testing.T) {
	// CoordNear's cell is CoordOf's. Inside the cube, where it reports no
	// face within the margin, no shift along an axis by less than the margin
	// leaves the cell (or the cube); where it reports one, a shift by a
	// little more does.
	g, _ := NewGrid(10, 100)
	const margin = 0.4
	shifts := []vec3.V{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}, {Z: 1}, {Z: -1}}
	leaves := func(pos vec3.V, c Coord, by float64) bool {
		for _, d := range shifts {
			if dc, ok := g.CoordOf(pos.Add(d.Scale(by))); !ok || dc != c {
				return true
			}
		}
		return false
	}
	f := func(x, y, z int16) bool {
		pos := vec3.V{X: float64(x) / 300, Y: float64(y) / 300, Z: float64(z) / 300} // ±109 km: past the cube too
		c, ok, near := g.CoordNear(pos, margin)
		if wc, wok := g.CoordOf(pos); ok != wok || ok && c != wc {
			return false
		}
		if !ok {
			return true
		}
		if near {
			return leaves(pos, c, 1.001*margin)
		}
		return !leaves(pos, c, 0.999*margin)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestKeyTopBitZero(t *testing.T) {
	// Keys must never collide with the lock-free empty sentinel (all ones).
	g := limitGrid(t)
	m := g.MaxAbsCoord() + 1
	for _, c := range []Coord{{m, m, m}, {-m, -m, -m}} {
		if g.Key(c)>>63 != 0 {
			t.Errorf("Key(%v) has top bit set", c)
		}
	}
}

func TestPropKeyInjective(t *testing.T) {
	g := limitGrid(t)
	f := func(x1, y1, z1, x2, y2, z2 int32) bool {
		m := func(v int32) int32 { return v % (g.MaxAbsCoord() + 1) }
		a := Coord{m(x1), m(y1), m(z1)}
		b := Coord{m(x2), m(y2), m(z2)}
		if a == b {
			return g.Key(a) == g.Key(b)
		}
		return g.Key(a) != g.Key(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNeighborKeysAllTwentySix(t *testing.T) {
	g, _ := NewGrid(10, 1000)
	got := g.NeighborKeys(Coord{3, -4, 5}, nil)
	if len(got) != 26 {
		t.Fatalf("interior cell has %d neighbours, want 26", len(got))
	}
	seen := map[uint64]bool{}
	for _, k := range got {
		if seen[k] {
			t.Error("duplicate neighbour key")
		}
		seen[k] = true
		c := g.Coord(k)
		dx, dy, dz := c.X-3, c.Y+4, c.Z-5
		if dx < -1 || dx > 1 || dy < -1 || dy > 1 || dz < -1 || dz > 1 || (dx == 0 && dy == 0 && dz == 0) {
			t.Errorf("bad neighbour offset (%d,%d,%d)", dx, dy, dz)
		}
	}
}

func TestNeighborKeysCorner(t *testing.T) {
	g, _ := NewGrid(10, 100)
	m := g.MaxAbsCoord()
	got := g.NeighborKeys(Coord{m, m, m}, nil)
	if len(got) != 7 {
		t.Errorf("corner cell has %d neighbours, want 7", len(got))
	}
}

func TestNeighborKeysAreKeyOffsets(t *testing.T) {
	// The scan reaches neighbours by key arithmetic alone: on the finest grid
	// NewGrid accepts, where the biased fields come closest to 0 and all ones,
	// a neighbour inside the cube is the centre key plus a fixed offset per
	// axis, and the same sum for a neighbour outside the cube is the key of an
	// out-of-range coordinate — nothing is ever inserted under it, and no carry
	// turned it into some other cell's key. (core's TestKeyLayouts repeats this
	// over the other layouts.)
	g := limitGrid(t)
	m, fb := g.MaxAbsCoord(), g.FieldBits()
	for _, c := range []Coord{
		{0, 0, 0}, {-1, 0, -1}, {3, -4, 5},
		{m, 0, 0}, {0, -m, 0}, {0, 0, m}, // faces
		{m, m, 0}, {-m, 0, m}, {0, -m, -m}, // edges
		{m, m, m}, {-m, -m, -m}, {m, -m, m}, // corners
	} {
		inBounds := map[uint64]bool{}
		for _, k := range g.NeighborKeys(c, nil) {
			inBounds[k] = true
		}
		for dx := int32(-1); dx <= 1; dx++ {
			for dy := int32(-1); dy <= 1; dy++ {
				for dz := int32(-1); dz <= 1; dz++ {
					if dx == 0 && dy == 0 && dz == 0 {
						continue
					}
					want := Coord{c.X + dx, c.Y + dy, c.Z + dz}
					sum := uint64(int64(g.Key(c)) + int64(dx)<<(2*fb) + int64(dy)<<fb + int64(dz))
					if got := g.Coord(sum); got != want {
						t.Fatalf("centre %+v offset (%d,%d,%d): key sum unpacks to %+v, want %+v", c, dx, dy, dz, got, want)
					}
					inside := g.inRange(want.X) && g.inRange(want.Y) && g.inRange(want.Z)
					if inBounds[sum] != inside {
						t.Fatalf("centre %+v: neighbour %+v in NeighborKeys = %v, inside the cube = %v", c, want, inBounds[sum], inside)
					}
				}
			}
		}
	}
}

func TestCellCenter(t *testing.T) {
	g, _ := NewGrid(10, 100)
	ctr := g.CellCenter(Coord{0, 0, 0})
	if ctr.Dist(vec3.New(5, 5, 5)) > 1e-12 {
		t.Errorf("CellCenter(0,0,0) = %v, want (5,5,5)", ctr)
	}
	// The centre must map back to its own cell.
	c, ok := g.CoordOf(g.CellCenter(Coord{-3, 2, 7}))
	if !ok || c != (Coord{-3, 2, 7}) {
		t.Errorf("centre of (-3,2,7) maps to %v", c)
	}
}

func TestPropAdjacentPositionsAdjacentCells(t *testing.T) {
	// Two positions closer than one cell size are in the same or adjacent
	// cells — the invariant conjunction detection relies on.
	g, _ := NewGrid(25, 2000)
	f := func(x, y, z, dx, dy, dz float64) bool {
		clamp := func(v, lim float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, lim)
		}
		p := vec3.New(clamp(x, 1900), clamp(y, 1900), clamp(z, 1900))
		d := vec3.New(clamp(dx, 14), clamp(dy, 14), clamp(dz, 14)) // |d| < 25
		q := p.Add(d)
		cp, ok1 := g.CoordOf(p)
		cq, ok2 := g.CoordOf(q)
		if !ok1 || !ok2 {
			return true
		}
		return abs32(cp.X-cq.X) <= 1 && abs32(cp.Y-cq.Y) <= 1 && abs32(cp.Z-cq.Z) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

func TestRequiredHalfExtent(t *testing.T) {
	if got := RequiredHalfExtent(42164, 10); got != 42184 {
		t.Errorf("RequiredHalfExtent = %v", got)
	}
}

func TestCellsPerAxis(t *testing.T) {
	g, _ := NewGrid(10, 100)
	if got := 2*g.MaxAbsCoord() + 1; got != 21 { // indices -10..10
		t.Errorf("cells per axis = %d, want 21", got)
	}
}
