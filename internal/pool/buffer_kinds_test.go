package pool

import (
	"testing"

	"repro/internal/lockfree"
	"repro/internal/propagation"
)

// Pool coverage for the step-loop kinds: per-worker key buffers, cell
// buffers, and Kepler warm-start caches. The contract matches
// the other kinds — capacity-aware best-fit reuse within the oversize window,
// idle caps, and stale contents on reuse (callers rewrite before reading).

func TestKeyBufRoundTripAndLength(t *testing.T) {
	p := New()
	b := p.GetKeyBuf(128)
	if len(b) != 0 {
		t.Fatalf("fresh key buffer has length %d, want 0", len(b))
	}
	if cap(b) < 128 {
		t.Fatalf("fresh key buffer capacity %d < hint 128", cap(b))
	}
	b = append(b, 1, 2, 3)
	p.PutKeyBuf(b)
	got := p.GetKeyBuf(64)
	if len(got) != 0 {
		t.Fatalf("reused key buffer not truncated: length %d", len(got))
	}
	if cap(got) != cap(b) {
		t.Fatalf("reuse returned capacity %d, want the idle buffer's %d", cap(got), cap(b))
	}
}

func TestCellBufRoundTrip(t *testing.T) {
	// Same shape as the key buffers: handed out empty, best fit, counted.
	p := New()
	big, snug := p.GetCellBuf(4096), p.GetCellBuf(512)
	if len(snug) != 0 || cap(snug) < 512 {
		t.Fatalf("fresh cell buffer has length %d, capacity %d", len(snug), cap(snug))
	}
	snug = append(snug, lockfree.Cell{Key: 7})
	p.PutCellBuf(big)
	p.PutCellBuf(snug)
	p.PutCellBuf(nil)
	got := p.GetCellBuf(256)
	if len(got) != 0 || &got[:1][0] != &snug[0] {
		t.Fatal("best fit did not return the snug buffer, emptied")
	}
	if st := p.Stats(); st.Outstanding() != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v, want one outstanding and one hit", st)
	}
}

func TestKeyBufBestFit(t *testing.T) {
	p := New()
	big := p.GetKeyBuf(4096)
	snug := p.GetKeyBuf(512)
	capBig, capSnug := cap(big), cap(snug)
	if capBig == capSnug {
		t.Skip("allocator rounded both buffers to one size")
	}
	p.PutKeyBuf(big)
	p.PutKeyBuf(snug)
	if got := p.GetKeyBuf(512); cap(got) != capSnug {
		t.Fatalf("best-fit picked capacity %d, want %d", cap(got), capSnug)
	}
}

func TestKeplerCacheLengthAndReuse(t *testing.T) {
	p := New()
	c := p.GetKeplerCache(100)
	if len(c) != 100 {
		t.Fatalf("cache length %d, want 100", len(c))
	}
	c[0] = propagation.KeplerCache{E: 1, DeltaE: 2}
	p.PutKeplerCache(c)
	got := p.GetKeplerCache(50)
	if len(got) != 50 {
		t.Fatalf("reused cache length %d, want 50", len(got))
	}
	// Contents are stale by contract — the caller seeds every entry before
	// use — so reuse itself is what's asserted, not zeroing.
	if &got[0] != &c[0] {
		t.Fatal("matching request did not reuse the idle cache")
	}
}

func TestKeplerCacheFitWindow(t *testing.T) {
	p := New()
	small := p.GetKeplerCache(10)
	p.PutKeplerCache(small)
	if got := p.GetKeplerCache(10_000); len(got) != 10_000 {
		t.Fatalf("got length %d, want 10000", len(got))
	}
	p2 := New()
	huge := p2.GetKeplerCache(100_000)
	p2.PutKeplerCache(huge)
	got := p2.GetKeplerCache(4) // far below the oversize window of 100k
	if cap(got) == cap(huge) {
		t.Fatal("reused a pathologically oversized cache")
	}
}

func TestNewKindsDrain(t *testing.T) {
	p := New()
	kb := p.GetKeyBuf(64)
	kc := p.GetKeplerCache(16)
	kn := p.GetKnots(16)
	cb := append(p.GetCellBuf(64), lockfree.Cell{Key: 1})
	p.PutKeyBuf(kb)
	p.PutKeplerCache(kc)
	p.PutKnots(kn)
	p.PutCellBuf(cb)
	p.Drain()
	if got := p.GetCellBuf(64)[:1]; &got[0] == &cb[0] {
		t.Fatal("cell buffer survived Drain")
	}
	if got := p.GetKeplerCache(16); &got[0] == &kc[0] {
		t.Fatal("kepler cache survived Drain")
	}
	if got := p.GetKnots(16); &got[0] == &kn[0] {
		t.Fatal("knot table survived Drain")
	}
}

func TestGateRowsLengthReuseAndDrain(t *testing.T) {
	p := New()
	rows := p.GetGateRows(100)
	if len(rows) != 100 {
		t.Fatalf("table length %d, want 100", len(rows))
	}
	p.PutGateRows(rows)
	got := p.GetGateRows(60)
	if len(got) != 60 || &got[0] != &rows[0] {
		t.Fatal("a fitting request did not reuse the idle table")
	}
	p.PutGateRows(got)
	p.PutGateRows(nil)
	p.Drain()
	if got := p.GetGateRows(60); &got[0] == &rows[0] {
		t.Fatal("gate table survived Drain")
	}
	if s := p.Stats(); s.Outstanding() != 1 {
		t.Fatalf("outstanding %d, want 1", s.Outstanding())
	}
}

func TestMotionRowsZeroedReuseAndBalance(t *testing.T) {
	p := New()
	rows := p.GetMotionRows(100)
	if len(rows) != 100 {
		t.Fatalf("table length %d, want 100", len(rows))
	}
	rows[0].Pos[0] = 7 // rows written at some step
	rows[1].Stamp.Store(5)
	p.PutMotionRows(rows)
	p.PutMotionRows(nil)
	got := p.GetMotionRows(60)
	if len(got) != 60 || &got[0] != &rows[0] {
		t.Fatal("a fitting request did not reuse the idle table")
	}
	if got[0].Pos[0] != 0 || got[1].Stamp.Load() != 0 {
		t.Fatal("a reused table still names a step: Get must zero it")
	}
	p.PutMotionRows(got)
	if s := p.Stats(); s.Outstanding() != 0 || s.Hits != 1 {
		t.Fatalf("stats %+v, want balanced with one hit", s)
	}
	p.Drain()
	if got := p.GetMotionRows(60); &got[0] == &rows[0] {
		t.Fatal("motion table survived Drain")
	}
}

func TestNewKindsDisabled(t *testing.T) {
	p := Disabled()
	cb := append(p.GetCellBuf(64), lockfree.Cell{Key: 1})
	p.PutCellBuf(cb)
	if got := p.GetCellBuf(64)[:1]; &got[0] == &cb[0] {
		t.Fatal("disabled pool reused a cell buffer")
	}
	kb := p.GetKeyBuf(64)
	p.PutKeyBuf(kb)
	kc := p.GetKeplerCache(8)
	p.PutKeplerCache(kc)
	if got := p.GetKeplerCache(8); len(kc) > 0 && len(got) > 0 && &got[0] == &kc[0] {
		t.Fatal("disabled pool reused a kepler cache")
	}
}
