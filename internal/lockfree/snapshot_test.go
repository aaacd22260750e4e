package lockfree

import (
	"maps"
	"sync"
	"testing"

	"repro/internal/mathx"
	"repro/internal/vec3"
)

// snapCells returns the snapshot's cells as key → ID set, failing unless
// every key appears once and the cells' ranges tile [0, Entries()) in order,
// so every entry belongs to exactly one cell.
func snapCells(t *testing.T, sn *GridSnapshot) map[uint64]map[int32]bool {
	t.Helper()
	cells := map[uint64]map[int32]bool{}
	at := int32(0)
	for _, c := range sn.Cells() {
		if c.Key == EmptySlot || c.Lo != at || c.Hi <= c.Lo {
			t.Fatalf("cell %+v does not continue the tiling at %d", c, at)
		}
		at = c.Hi
		if cells[c.Key] != nil {
			t.Fatalf("key %#x frozen twice", c.Key)
		}
		ids := map[int32]bool{}
		for _, id := range sn.IDs()[c.Lo:c.Hi] {
			ids[id] = true
		}
		cells[c.Key] = ids
	}
	if int(at) != sn.Entries() || len(sn.IDs()) != sn.Entries() {
		t.Fatalf("cells cover %d of %d entries (%d IDs)", at, sn.Entries(), len(sn.IDs()))
	}
	return cells
}

// wantCells is the reference for snapCells: every key's ID set, read from the
// live grid's lists.
func wantCells(g *GridSet, keys []uint64) map[uint64]map[int32]bool {
	want := map[uint64]map[int32]bool{}
	for _, key := range keys {
		if ids := collectCell(g, key); len(ids) > 0 {
			want[key] = ids
		}
	}
	return want
}

func assertSameCells(t *testing.T, what string, got, want map[uint64]map[int32]bool) {
	t.Helper()
	if !maps.EqualFunc(got, want, func(a, b map[int32]bool) bool { return maps.Equal(a, b) }) {
		t.Fatalf("%s: snapshot cells %v, want %v", what, got, want)
	}
}

func TestSnapshotFreezeMatchesGrid(t *testing.T) {
	g := NewGridSet(64, 32)
	type ins struct {
		key uint64
		id  int32
	}
	inserts := []ins{{100, 10}, {100, 42}, {100, 7}, {200, 3}, {300, 5}}
	for i, in := range inserts {
		if err := g.Insert(in.key, int32(i), in.id, vec3.New(float64(i), 2, 3)); err != nil {
			t.Fatal(err)
		}
	}

	sn := NewGridSnapshot(0, 0) // undersized on purpose: Freeze must grow it
	sn.Freeze(g, 1)

	if sn.Entries() != len(inserts) {
		t.Fatalf("snapshot entries = %d, want %d", sn.Entries(), len(inserts))
	}
	got := snapCells(t, sn)
	assertSameCells(t, "freeze", got, wantCells(g, []uint64{100, 200, 300, 999}))
	if len(got[100]) != 3 {
		t.Fatalf("cell 100 = %v, want three distinct IDs", got[100])
	}
}

func TestSnapshotCellsContiguous(t *testing.T) {
	// The cells' ranges must tile [0, Entries()) exactly once.
	g := NewGridSet(256, 512)
	rng := mathx.NewSplitMix64(7)
	for i := 0; i < 512; i++ {
		if err := g.Insert(rng.Uint64()%97+1, int32(i), int32(i), vec3.Zero); err != nil {
			t.Fatal(err)
		}
	}
	sn := NewGridSnapshot(0, 0)
	sn.Freeze(g, 1)
	if sn.Entries() != 512 {
		t.Fatalf("entries = %d, want 512", sn.Entries())
	}
	seen := map[int32]bool{}
	for _, ids := range snapCells(t, sn) { // checks the tiling
		for id := range ids {
			seen[id] = true
		}
	}
	if len(seen) != 512 {
		t.Fatalf("%d distinct IDs frozen, want 512", len(seen))
	}
}

func TestSnapshotFreezeParallelEquivalent(t *testing.T) {
	// Above freezeParallelThreshold slots the count / prefix / fill freeze
	// runs. Sequential, parallel with uneven slot ranges, and parallel over a
	// grid four goroutines filled at once must all hold the same cells, every
	// entry exactly once; the first two, reading one grid, in the same order.
	const n, distinct = 4096, 5000
	slots := freezeParallelThreshold * 2
	keys := make([]uint64, n)
	all := make([]uint64, distinct)
	rng := mathx.NewSplitMix64(11)
	for i := range keys {
		keys[i] = rng.Uint64()%distinct + 1
	}
	for i := range all {
		all[i] = uint64(i) + 1
	}
	g := NewGridSet(slots, n)
	for i, key := range keys {
		if err := g.Insert(key, int32(i), int32(i), vec3.Zero); err != nil {
			t.Fatal(err)
		}
	}
	want := wantCells(g, all)

	seq := NewGridSnapshot(0, 0)
	seq.Freeze(g, 1)
	assertSameCells(t, "sequential", snapCells(t, seq), want)
	for _, workers := range []int{2, 3, 8} {
		par := NewGridSnapshot(slots, n)
		par.Freeze(g, workers)
		assertSameCells(t, "parallel", snapCells(t, par), want)
		for i, c := range seq.Cells() {
			if par.Cells()[i] != c {
				t.Fatalf("%d workers, cell %d: parallel %+v vs sequential %+v", workers, i, par.Cells()[i], c)
			}
		}
		for i, id := range seq.IDs() {
			if par.IDs()[i] != id {
				t.Fatalf("%d workers, entry %d: parallel %d vs sequential %d", workers, i, par.IDs()[i], id)
			}
		}
	}

	raced := NewGridSet(slots, n)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 4 {
				if err := raced.Insert(keys[i], int32(i), int32(i), vec3.Zero); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	par := NewGridSnapshot(0, 0)
	par.Freeze(raced, 4)
	assertSameCells(t, "racing inserters", snapCells(t, par), want)
}

func TestSnapshotReuseAcrossFreezes(t *testing.T) {
	// A pooled snapshot serves grids of different sizes back to back; stale
	// contents from a larger previous freeze must never leak through.
	big := NewGridSet(256, 128)
	for i := int32(0); i < 128; i++ {
		if err := big.Insert(uint64(i%50)+1, i, i, vec3.Zero); err != nil {
			t.Fatal(err)
		}
	}
	sn := NewGridSnapshot(0, 0)
	sn.Freeze(big, 1)
	if sn.Entries() != 128 {
		t.Fatalf("first freeze entries = %d, want 128", sn.Entries())
	}

	small := NewGridSet(16, 4)
	if err := small.Insert(7, 0, 99, vec3.New(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	sn.Freeze(small, 1)
	assertSameCells(t, "reused snapshot", snapCells(t, sn), map[uint64]map[int32]bool{7: {99: true}})
	if sn.EntryCapacity() < 128 {
		t.Errorf("entry capacity shrank to %d on reuse", sn.EntryCapacity())
	}
}

func TestSnapshotEmptyGrid(t *testing.T) {
	for _, slots := range []int{16, freezeParallelThreshold} {
		sn := NewGridSnapshot(0, 0)
		sn.Freeze(NewGridSet(slots, 4), 4)
		if sn.Entries() != 0 || len(sn.Cells()) != 0 {
			t.Fatalf("%d empty slots froze to %d entries in %d cells", slots, sn.Entries(), len(sn.Cells()))
		}
	}
}

func TestSnapshotProbesAcrossCollisions(t *testing.T) {
	// Keys pushed off their home slot by linear probing freeze like any
	// other: a tiny table forces chains, and every key must keep its own cell.
	g := NewGridSet(8, 16)
	keys := []uint64{1, 9, 17, 25, 33, 41}
	want := map[uint64]map[int32]bool{}
	for i, key := range keys {
		if err := g.Insert(key, int32(i), int32(i), vec3.Zero); err != nil {
			t.Fatal(err)
		}
		want[key] = map[int32]bool{int32(i): true}
	}
	sn := NewGridSnapshot(0, 0)
	sn.Freeze(g, 1)
	assertSameCells(t, "colliding keys", snapCells(t, sn), want)
}
