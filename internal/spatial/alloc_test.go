package spatial

import (
	"testing"

	"repro/internal/vec3"
)

// The build kernel calls KeyOf/CoordOf once per object per step, and the
// steady-state allocation budget in internal/core relies on them staying
// allocation-free — pin that here, next to the implementation, with
// NeighborKeys, the reference neighbourhood of the tests, given a recycled
// destination slice.
func TestHotPathHelpersDoNotAllocate(t *testing.T) {
	g, err := NewGrid(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	pos := vec3.V{X: 7000, Y: -3.5, Z: 42}
	c, ok := g.CoordOf(pos)
	if !ok {
		t.Fatal("position out of range")
	}
	dst := make([]uint64, 0, 32)
	for name, fn := range map[string]func(){
		"KeyOf":   func() { _, _ = g.KeyOf(pos) },
		"CoordOf": func() { _, _ = g.CoordOf(pos) },
		"NeighborKeys": func() {
			dst = g.NeighborKeys(c, dst[:0])
		},
	} {
		if avg := testing.AllocsPerRun(100, fn); avg > 0 {
			t.Errorf("%s allocates %.1f times per call with pre-sized dst", name, avg)
		}
	}
}
