package pool

import (
	"sync"
	"testing"

	"repro/internal/lockfree"
)

func TestGridSetRoundTrip(t *testing.T) {
	p := New()
	g := p.GetGridSet(64, 32)
	p.PutGridSet(g)
	got := p.GetGridSet(64, 32)
	if got != g {
		t.Fatal("matching request did not reuse the idle grid set")
	}
	st := p.Stats()
	if st.Gets != 2 || st.Puts != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Outstanding() != 1 {
		t.Fatalf("Outstanding = %d, want 1", st.Outstanding())
	}
}

func TestGridSetFitWindow(t *testing.T) {
	p := New()
	small := p.GetGridSet(64, 32)
	p.PutGridSet(small)

	// Undersized for the request: must allocate fresh.
	if got := p.GetGridSet(1024, 32); got == small {
		t.Fatal("reused a grid set with too few slots")
	}
	// Entry arena too small: must allocate fresh.
	p2 := New()
	p2.PutGridSet(lockfree.NewGridSet(64, 8))
	p2.gets.Store(1) // balance the direct Put for the counter invariant
	if got := p2.GetGridSet(64, 1000); got.EntryCapacity() < 1000 {
		t.Fatal("reused a grid set with too small an entry arena")
	}

	// Pathologically oversized: outside the fit window, must allocate fresh.
	p3 := New()
	huge := p3.GetGridSet(1<<16, 32)
	p3.PutGridSet(huge)
	if got := p3.GetGridSet(16, 32); got == huge {
		t.Fatalf("reused a %d-slot set for a 16-slot request", huge.Slots())
	}
}

func TestGridSetBestFit(t *testing.T) {
	p := New()
	big := p.GetGridSet(512, 32)
	snug := p.GetGridSet(128, 32)
	p.PutGridSet(big)
	p.PutGridSet(snug)
	if got := p.GetGridSet(128, 32); got != snug {
		t.Fatalf("best-fit picked %d slots, want the %d-slot set", got.Slots(), snug.Slots())
	}
}

func TestIDIndexClearedOnPut(t *testing.T) {
	p := New()
	m := p.GetIDIndex(4)
	m[7] = 3
	p.PutIDIndex(m)
	got := p.GetIDIndex(4)
	if len(got) != 0 {
		t.Fatalf("reused index has %d stale entries", len(got))
	}
}

func TestDisabledNeverReuses(t *testing.T) {
	p := Disabled()
	g := p.GetGridSet(64, 32)
	p.PutGridSet(g)
	if got := p.GetGridSet(64, 32); got == g {
		t.Fatal("disabled pool reused a structure")
	}
	st := p.Stats()
	if st.Gets != 2 || st.Puts != 1 || st.Hits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestIdleCapBoundsRetention(t *testing.T) {
	p := New()
	var maps []map[int32]int32
	for i := 0; i < maxIdleIndexes+5; i++ {
		maps = append(maps, p.GetIDIndex(4))
	}
	for _, m := range maps {
		p.PutIDIndex(m)
	}
	for i := 0; i < maxIdleIndexes+5; i++ {
		p.GetIDIndex(4)
	}
	if hits := p.Stats().Hits; hits != maxIdleIndexes {
		t.Fatalf("hits = %d, want the idle cap %d", hits, maxIdleIndexes)
	}
}

func TestDrain(t *testing.T) {
	p := New()
	g := p.GetGridSet(64, 32)
	p.PutGridSet(g)
	p.Drain()
	if got := p.GetGridSet(64, 32); got == g {
		t.Fatal("drained structure was handed out again")
	}
}

// TestConcurrentGetPut exercises the freelists from many goroutines; run
// under -race it proves the locking discipline.
func TestConcurrentGetPut(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g := p.GetGridSet(64, 32)
				ks := p.GetKeyBuf(64)
				kc := p.GetKeplerCache(16)
				m := p.GetIDIndex(4)
				m[int32(i)] = 1
				p.PutIDIndex(m)
				p.PutKeplerCache(kc)
				p.PutKeyBuf(ks)
				p.PutGridSet(g)
			}
		}()
	}
	wg.Wait()
	if out := p.Stats().Outstanding(); out != 0 {
		t.Fatalf("Outstanding = %d after quiesce", out)
	}
}

// TestGridSetOversizeWindowCoversEntries: a small request must not be served
// by a set whose slots fit the window but whose entry arena is far larger —
// the shape of a delta pass's stamp table next to an idle population grid.
func TestGridSetOversizeWindowCoversEntries(t *testing.T) {
	p := New()
	p.PutGridSet(p.GetGridSet(16000, 8000)) // 16384 slots, 8000 entries
	small := p.GetGridSet(8*27*16, 27*16)   // wants 4096 slots: 16384 is inside 8×
	if small.Slots() != 4096 || small.EntryCapacity() != 27*16 {
		t.Fatalf("got %d slots / %d entries, want a fresh 4096 / %d", small.Slots(), small.EntryCapacity(), 27*16)
	}
	p.PutGridSet(small)
	if again := p.GetGridSet(8*27*16, 27*16); again != small {
		t.Fatal("the right-sized set was not reused")
	}
	if big := p.GetGridSet(16000, 8000); big.Slots() != 16384 || p.Stats().Hits != 2 {
		t.Fatalf("the population-sized set was not reused: %d slots, %+v", big.Slots(), p.Stats())
	}
}
