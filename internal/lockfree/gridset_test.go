package lockfree

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mathx"
	"repro/internal/vec3"
)

func TestGridSetInsertAndLookup(t *testing.T) {
	g := NewGridSet(16, 8)
	if err := g.Insert(100, 0, 10, vec3.New(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := g.Insert(100, 1, 42, vec3.New(4, 5, 6)); err != nil {
		t.Fatal(err)
	}
	if err := g.Insert(200, 2, 7, vec3.New(7, 8, 9)); err != nil {
		t.Fatal(err)
	}

	ids := collectCell(g, 100)
	if len(ids) != 2 || !ids[10] || !ids[42] {
		t.Errorf("cell 100 contents = %v, want {10, 42}", ids)
	}
	ids = collectCell(g, 200)
	if len(ids) != 1 || !ids[7] {
		t.Errorf("cell 200 contents = %v, want {7}", ids)
	}
	if g.Head(999) != -1 {
		t.Error("missing cell returned a list")
	}
}

func collectCell(g *GridSet, key uint64) map[int32]bool {
	ids := map[int32]bool{}
	for i := g.Head(key); i != -1; i = g.Next(i) {
		ids[g.Entry(i).ID] = true
	}
	return ids
}

func TestGridSetEntryPositionsPreserved(t *testing.T) {
	g := NewGridSet(8, 4)
	want := vec3.New(6999.5, -1.25, 42.0)
	if err := g.Insert(5, 3, 77, want); err != nil {
		t.Fatal(err)
	}
	i := g.Head(5)
	if i == -1 {
		t.Fatal("entry not found")
	}
	if e := g.Entry(i); e.Pos != want || e.ID != 77 {
		t.Errorf("entry = %+v", e)
	}
}

func TestGridSetRejectsBadInput(t *testing.T) {
	g := NewGridSet(8, 2)
	if err := g.Insert(EmptySlot, 0, 1, vec3.Zero); err == nil {
		t.Error("sentinel key accepted")
	}
	if err := g.Insert(1, 5, 1, vec3.Zero); err == nil {
		t.Error("entry index beyond arena accepted")
	}
	if err := g.Insert(1, -1, 1, vec3.Zero); err == nil {
		t.Error("negative entry index accepted")
	}
}

func TestGridSetFull(t *testing.T) {
	g := NewGridSet(4, 16) // 4 slots
	var err error
	for i := int32(0); i < 8; i++ {
		// Distinct cell keys: once 4 distinct cells are stored, the fifth
		// distinct key must report ErrFull.
		err = g.Insert(uint64(i+1)*1000, i, i, vec3.Zero)
		if err != nil {
			break
		}
	}
	if err != ErrFull {
		t.Errorf("err = %v, want ErrFull after slots exhausted", err)
	}
}

func TestGridSetFullSameCellStillInserts(t *testing.T) {
	// Slot exhaustion limits distinct cells, not entries: a full table must
	// keep accepting satellites for already-stored cells.
	g := NewGridSet(2, 8)
	if err := g.Insert(11, 0, 0, vec3.Zero); err != nil {
		t.Fatal(err)
	}
	if err := g.Insert(22, 1, 1, vec3.Zero); err != nil {
		t.Fatal(err)
	}
	for i := int32(2); i < 8; i++ {
		if err := g.Insert(11, i, i, vec3.Zero); err != nil {
			t.Fatalf("insert into existing cell failed: %v", err)
		}
	}
	if got := len(collectCell(g, 11)); got != 7 {
		t.Errorf("cell 11 has %d entries, want 7", got)
	}
}

func TestGridSetLinearProbingCollisions(t *testing.T) {
	// With a tiny table every insertion collides; all cells must remain
	// retrievable regardless.
	g := NewGridSet(8, 8)
	keys := []uint64{3, 11, 19, 27, 35, 43, 51, 59}
	for i, k := range keys {
		if err := g.Insert(k, int32(i), int32(i), vec3.Zero); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i, k := range keys {
		ids := collectCell(g, k)
		if len(ids) != 1 || !ids[int32(i)] {
			t.Errorf("cell %d contents = %v", k, ids)
		}
	}
	if st := g.Stats(); st.OccupiedSlot != 8 || st.Inserts != 8 {
		t.Errorf("stats = %+v", st)
	}
}

func TestGridSetReset(t *testing.T) {
	g := NewGridSet(16, 4)
	if err := g.Insert(1, 0, 0, vec3.Zero); err != nil {
		t.Fatal(err)
	}
	g.Reset()
	if g.Head(1) != -1 {
		t.Error("cell survived reset")
	}
	if st := g.Stats(); st.Inserts != 0 || st.OccupiedSlot != 0 {
		t.Errorf("stats after reset = %+v", st)
	}
	// Reuse after reset.
	if err := g.Insert(1, 0, 9, vec3.Zero); err != nil {
		t.Fatal(err)
	}
	if ids := collectCell(g, 1); !ids[9] {
		t.Error("insert after reset failed")
	}
	// Reset writes occupied slots only; a cell that claims a recycled slot
	// must still start from an empty list, round after round.
	for round := int32(0); round < 3; round++ {
		g.Reset()
		for k := int32(0); k < 4; k++ {
			if err := g.Insert(uint64(100*round+k), k, 10*round+k, vec3.Zero); err != nil {
				t.Fatal(err)
			}
		}
		for k := int32(0); k < 4; k++ {
			if ids := collectCell(g, uint64(100*round+k)); len(ids) != 1 || !ids[10*round+k] {
				t.Fatalf("round %d cell %d holds %v", round, k, ids)
			}
		}
	}
}

func TestGridSetConcurrentInsertSameCell(t *testing.T) {
	// Many goroutines hammer one cell: the final list must contain every
	// entry exactly once. Run with -race in CI.
	const n = 512
	g := NewGridSet(64, n)
	var wg sync.WaitGroup
	for i := int32(0); i < n; i++ {
		wg.Add(1)
		go func(i int32) {
			defer wg.Done()
			if err := g.Insert(42, i, i, vec3.New(float64(i), 0, 0)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	seen := map[int32]bool{}
	count := 0
	for i := g.Head(42); i != -1; i = g.Next(i) {
		e := g.Entry(i)
		if seen[e.ID] {
			t.Fatalf("satellite %d appears twice", e.ID)
		}
		if e.Pos.X != float64(e.ID) {
			t.Fatalf("satellite %d has corrupted position %v", e.ID, e.Pos)
		}
		seen[e.ID] = true
		count++
	}
	if count != n {
		t.Errorf("cell holds %d entries, want %d", count, n)
	}
}

func TestGridSetConcurrentInsertManyCells(t *testing.T) {
	// Random cells from many goroutines; verify a full reconstruction.
	const n = 4096
	const cells = 257
	g := NewGridSet(2*cells, n)
	assigned := make([]uint64, n)
	rng := mathx.NewSplitMix64(321)
	for i := range assigned {
		assigned[i] = uint64(rng.Intn(cells) + 1)
	}
	var wg sync.WaitGroup
	workers := 8
	chunk := n / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			for i := lo; i < lo+chunk; i++ {
				if err := g.Insert(assigned[i], int32(i), int32(i), vec3.Zero); err != nil {
					t.Error(err)
				}
			}
		}(w * chunk)
	}
	wg.Wait()

	got := map[int32]uint64{}
	for s := 0; s < g.Slots(); s++ {
		key, head := g.SlotKey(s)
		if key == EmptySlot {
			continue
		}
		for i := head; i != -1; i = g.Next(i) {
			id := g.Entry(i).ID
			if prev, dup := got[id]; dup {
				t.Fatalf("satellite %d in two cells (%d and %d)", id, prev, key)
			}
			got[id] = key
		}
	}
	if len(got) != n {
		t.Fatalf("recovered %d satellites, want %d", len(got), n)
	}
	for i, want := range assigned {
		if got[int32(i)] != want {
			t.Errorf("satellite %d in cell %d, want %d", i, got[int32(i)], want)
		}
	}
}

func TestGridSetPowerOfTwoRounding(t *testing.T) {
	g := NewGridSet(1000, 0)
	if g.Slots() != 1024 {
		t.Errorf("Slots = %d, want 1024", g.Slots())
	}
	g2 := NewGridSet(0, 0)
	if g2.Slots() < 2 {
		t.Errorf("minimum slots = %d", g2.Slots())
	}
}

func TestGridSetAvgProbesReasonable(t *testing.T) {
	// At the paper's 2× slot factor, average probe length should stay small.
	const n = 10000
	g := NewGridSet(2*n, n)
	rng := mathx.NewSplitMix64(9)
	for i := int32(0); i < n; i++ {
		key := rng.Uint64() >> 1 // clear top bit: valid cell key
		if key == EmptySlot {
			key = 1
		}
		if err := g.Insert(key, i, i, vec3.Zero); err != nil {
			t.Fatal(err)
		}
	}
	st := g.Stats()
	if st.AvgProbes > 3 {
		t.Errorf("average probes %v at 50%% load, want < 3", st.AvgProbes)
	}
}

// shardedMap is a conventional mutex-sharded map — the ablation baseline the
// non-blocking design is benchmarked against (DESIGN.md §8).
type shardedMap struct {
	shards [64]struct {
		mu sync.Mutex
		m  map[uint64][]int32
	}
}

func newShardedMap() *shardedMap {
	s := &shardedMap{}
	for i := range s.shards {
		s.shards[i].m = make(map[uint64][]int32)
	}
	return s
}

func (s *shardedMap) insert(key uint64, id int32) {
	sh := &s.shards[key%64]
	sh.mu.Lock()
	sh.m[key] = append(sh.m[key], id)
	sh.mu.Unlock()
}

func BenchmarkGridSetInsert(b *testing.B) {
	const cells = 1 << 16
	g := NewGridSet(b.N+cells, b.N)
	rng := mathx.NewSplitMix64(1)
	keys := make([]uint64, b.N)
	for i := range keys {
		keys[i] = uint64(rng.Intn(cells) + 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Insert(keys[i], int32(i%(1<<20)), int32(i), vec3.Zero); err != nil {
			// Entry arena sized b.N but entryIdx wraps at 2^20; re-size.
			b.Skip("arena wrap; bench applies to N < 2^20")
		}
	}
}

func BenchmarkGridSetVsShardedParallel(b *testing.B) {
	const cells = 1 << 14
	b.Run("lockfree", func(b *testing.B) {
		g := NewGridSet(2*cells, b.N+1)
		var idx atomic.Int32
		idx.Store(-1)
		b.RunParallel(func(pb *testing.PB) {
			rng := mathx.NewSplitMix64(7)
			for pb.Next() {
				i := idx.Add(1)
				if int(i) >= g.EntryCapacity() {
					return
				}
				_ = g.Insert(uint64(rng.Intn(cells)+1), i, i, vec3.Zero)
			}
		})
	})
	b.Run("sharded-mutex", func(b *testing.B) {
		s := newShardedMap()
		var idx atomic.Int32
		b.RunParallel(func(pb *testing.PB) {
			rng := mathx.NewSplitMix64(7)
			for pb.Next() {
				i := idx.Add(1)
				s.insert(uint64(rng.Intn(cells)+1), i)
			}
		})
	})
}
