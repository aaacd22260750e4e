package lockfree

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/vec3"
)

// TestGridSetConcurrentInsertLookupRace hammers one GridSet from
// GOMAXPROCS inserter goroutines and as many concurrent readers, with the
// inserters deliberately colliding on a small set of cell keys so the CAS
// slot-claiming, linear probing, and Treiber-push paths all contend. Run
// under -race this is the machine-checked version of the §IV-A correctness
// argument; without -race it still verifies the final structure exactly.
func TestGridSetConcurrentInsertLookupRace(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	const perWorker = 2048
	const distinctCells = 61 // prime, far fewer cells than entries → overlap
	total := workers * perWorker

	g := NewGridSet(4*distinctCells, total)
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Readers traverse cell lists and scan slots while insertion is in
	// flight; every observation must be internally consistent.
	for r := 0; r < workers; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for !stop.Load() {
				for c := 0; c < distinctCells; c++ {
					key := cellKeyForTest(c)
					for e := g.Head(key); e >= 0; e = g.Next(e) {
						ent := g.Entry(e)
						if ent.ID < 0 || int(ent.ID) >= total {
							t.Errorf("reader saw entry with corrupt ID %d", ent.ID)
							return
						}
						if wantCell := int(ent.ID) % distinctCells; wantCell != c {
							t.Errorf("entry %d (cell %d) reached from cell %d's list", ent.ID, wantCell, c)
							return
						}
					}
				}
				for s := 0; s < g.Slots(); s++ {
					if key, head := g.SlotKey(s); key == EmptySlot && head >= 0 {
						// A head may be published momentarily before its key
						// only if the implementation reordered key and head
						// writes; Insert CASes the key first, so this is a
						// real corruption.
						t.Errorf("slot %d has head %d but empty key", s, head)
						return
					}
				}
			}
		}(r)
	}

	var insWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		insWG.Add(1)
		go func(w int) {
			defer wg.Done()
			defer insWG.Done()
			for i := 0; i < perWorker; i++ {
				id := int32(w*perWorker + i)
				key := cellKeyForTest(int(id) % distinctCells)
				pos := vec3.V{X: float64(id), Y: float64(w), Z: float64(i)}
				if err := g.Insert(key, id, id, pos); err != nil {
					t.Errorf("insert %d: %v", id, err)
					return
				}
			}
		}(w)
	}

	// Stop the readers only after all inserters finished, then drain everyone.
	insWG.Wait()
	stop.Store(true)
	wg.Wait()

	// Quiesced verification: every entry is reachable from exactly the cell
	// list its key hashes to, and nothing was lost or duplicated.
	seen := make([]bool, total)
	for c := 0; c < distinctCells; c++ {
		for e := g.Head(cellKeyForTest(c)); e >= 0; e = g.Next(e) {
			ent := g.Entry(e)
			if seen[ent.ID] {
				t.Fatalf("entry %d appears twice", ent.ID)
			}
			seen[ent.ID] = true
			if int(ent.ID)%distinctCells != c {
				t.Fatalf("entry %d chained into wrong cell %d", ent.ID, c)
			}
			if ent.Pos.X != float64(ent.ID) { //lint:floateq-ok — exact stored value
				t.Fatalf("entry %d has corrupt position %v", ent.ID, ent.Pos)
			}
		}
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("entry %d lost", id)
		}
	}
	if st := g.Stats(); st.Inserts != uint64(total) {
		t.Fatalf("stats count %d inserts, want %d", st.Inserts, total)
	}
}

// TestPairSetConcurrentInsertLookupRace drives PairSet's CAS insertion from
// GOMAXPROCS goroutines with heavily overlapping keys: every goroutine
// inserts the same triangle of pairs, so exactly one Add per pair may win.
func TestPairSetConcurrentInsertLookupRace(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	const ids = 64 // ids*(ids-1)/2 distinct pairs, inserted by every worker
	distinct := ids * (ids - 1) / 2

	p := NewPairSet(4 * distinct)
	var added atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup

	for r := 0; r < workers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				// Contains must never fail on a pair that was already
				// reported added (insert-only set).
				if p.Contains(0, 1, 0) && p.Len() == 0 {
					t.Error("contains/len inconsistency")
					return
				}
			}
		}()
	}

	var insWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		insWG.Add(1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer insWG.Done()
			// Walk the triangle in a worker-dependent order to vary contention.
			for a := int32(0); a < ids; a++ {
				for b := a + 1; b < ids; b++ {
					x, y := a, b
					if w%2 == 1 {
						x, y = y, x // PackPair must normalise the order
					}
					ok, err := p.Insert(x, y, 0)
					if err != nil {
						t.Errorf("insert (%d,%d): %v", x, y, err)
						return
					}
					if ok {
						added.Add(1)
					}
				}
			}
		}(w)
	}
	insWG.Wait()
	stop.Store(true)
	wg.Wait()

	if got := added.Load(); got != int64(distinct) {
		t.Fatalf("%d successful adds across workers, want exactly %d", got, distinct)
	}
	if p.Len() != distinct {
		t.Fatalf("Len() = %d, want %d", p.Len(), distinct)
	}
	for a := int32(0); a < ids; a++ {
		for b := a + 1; b < ids; b++ {
			if !p.Contains(a, b, 0) {
				t.Fatalf("pair (%d,%d) lost", a, b)
			}
		}
	}
}

// cellKeyForTest derives a valid (top-bit-clear, non-sentinel) cell key for
// synthetic cell c.
func cellKeyForTest(c int) uint64 {
	return uint64(c)*2654435761 + 1
}
