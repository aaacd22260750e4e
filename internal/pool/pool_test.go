package pool

import (
	"sync"
	"testing"
)

func TestBitsetRoundTrip(t *testing.T) {
	p := New()
	b := p.GetBitset(64)
	b[3] = 7
	p.PutBitset(b)
	got := p.GetBitset(64)
	if &got[0] != &b[0] {
		t.Fatal("matching request did not reuse the idle bitset")
	}
	if got[3] != 0 {
		t.Fatal("reused bitset was not zeroed")
	}
	st := p.Stats()
	if st.Gets != 2 || st.Puts != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Outstanding() != 1 {
		t.Fatalf("Outstanding = %d, want 1", st.Outstanding())
	}
}

func TestBitsetFitWindow(t *testing.T) {
	p := New()
	small := p.GetBitset(64)
	p.PutBitset(small)

	// Undersized for the request: must allocate fresh.
	if got := p.GetBitset(1024); len(got) != 1024 || &got[0] == &small[0] {
		t.Fatal("reused a bitset with too few words")
	}

	// Pathologically oversized: outside the fit window, must allocate fresh.
	p2 := New()
	huge := p2.GetBitset(1 << 16)
	p2.PutBitset(huge)
	if got := p2.GetBitset(16); len(got) != 16 || &got[0] == &huge[0] {
		t.Fatalf("reused a %d-word bitset for a 16-word request", len(huge))
	}
}

func TestBitsetBestFit(t *testing.T) {
	p := New()
	big := p.GetBitset(512)
	snug := p.GetBitset(128)
	p.PutBitset(big)
	p.PutBitset(snug)
	if got := p.GetBitset(128); &got[0] != &snug[0] {
		t.Fatalf("best-fit picked a %d-word bitset, want the %d-word one", cap(got), cap(snug))
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
	b := p.GetBitset(64)
	p.PutBitset(b)
	if got := p.GetBitset(64); &got[0] == &b[0] {
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
	b := p.GetBitset(64)
	p.PutBitset(b)
	p.Drain()
	if got := p.GetBitset(64); &got[0] == &b[0] {
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
				b := p.GetBitset(64)
				ks := p.GetKeyBuf(64)
				kc := p.GetKeplerCache(16)
				m := p.GetIDIndex(4)
				m[int32(i)] = 1
				p.PutIDIndex(m)
				p.PutKeplerCache(kc)
				p.PutKeyBuf(ks)
				p.PutBitset(b)
			}
		}()
	}
	wg.Wait()
	if out := p.Stats().Outstanding(); out != 0 {
		t.Fatalf("Outstanding = %d after quiesce", out)
	}
}
