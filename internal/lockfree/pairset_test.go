package lockfree

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func TestPackUnpackPair(t *testing.T) {
	cases := []struct {
		a, b int32
		step uint32
	}{
		{0, 1, 0},
		{1, 0, 5},
		{MaxID - 1, MaxID, MaxStep},
		{12345, 678, 999},
	}
	for _, c := range cases {
		p := UnpackPair(PackPair(c.a, c.b, c.step))
		lo, hi := c.a, c.b
		if lo > hi {
			lo, hi = hi, lo
		}
		if p.A != lo || p.B != hi || p.Step != c.step {
			t.Errorf("roundtrip (%d,%d,%d) → %+v", c.a, c.b, c.step, p)
		}
	}
}

func TestPackPairSymmetric(t *testing.T) {
	if PackPair(3, 9, 7) != PackPair(9, 3, 7) {
		t.Error("PackPair not symmetric in ids")
	}
}

func TestPropPackPairNeverSentinel(t *testing.T) {
	f := func(aRaw, bRaw int32, stepRaw uint32) bool {
		a := aRaw & MaxID
		b := bRaw & MaxID
		if a == b {
			return true
		}
		return PackPair(a, b, stepRaw&MaxStep) != EmptySlot
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPairSetInsertDedup(t *testing.T) {
	p := NewPairSet(64)
	added, err := p.Insert(1, 2, 0)
	if err != nil || !added {
		t.Fatalf("first insert: added=%v err=%v", added, err)
	}
	added, err = p.Insert(2, 1, 0) // same pair, reversed
	if err != nil || added {
		t.Fatalf("duplicate insert: added=%v err=%v", added, err)
	}
	added, err = p.Insert(1, 2, 1) // same pair, next step → distinct
	if err != nil || !added {
		t.Fatalf("next-step insert: added=%v err=%v", added, err)
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d, want 2", p.Len())
	}
}

func TestPairSetContains(t *testing.T) {
	p := NewPairSet(64)
	if _, err := p.Insert(5, 6, 3); err != nil {
		t.Fatal(err)
	}
	if !p.Contains(6, 5, 3) {
		t.Error("Contains missed stored pair (reversed ids)")
	}
	if p.Contains(5, 6, 4) {
		t.Error("Contains found wrong step")
	}
	if p.Contains(5, 7, 3) {
		t.Error("Contains found absent pair")
	}
}

func TestPairSetRejectsBadInput(t *testing.T) {
	p := NewPairSet(8)
	if _, err := p.Insert(3, 3, 0); err == nil {
		t.Error("self-pair accepted")
	}
	if _, err := p.Insert(-1, 2, 0); err == nil {
		t.Error("negative id accepted")
	}
	if _, err := p.Insert(1, MaxID+1, 0); err == nil {
		t.Error("oversized id accepted")
	}
	if _, err := p.Insert(1, 2, MaxStep+1); err == nil {
		t.Error("oversized step accepted")
	}
}

func TestPairSetFull(t *testing.T) {
	p := NewPairSet(4)
	var sawFull bool
	for i := int32(0); i < 16 && !sawFull; i++ {
		_, err := p.Insert(i, i+100, 0)
		if err == ErrFull {
			sawFull = true
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Error("never reported ErrFull beyond capacity")
	}
}

func TestPairSetItems(t *testing.T) {
	p := NewPairSet(64)
	want := map[Pair]bool{}
	rng := mathx.NewSplitMix64(4)
	for i := 0; i < 20; i++ {
		a, b := int32(rng.Intn(100)), int32(rng.Intn(100))
		if a == b {
			continue
		}
		step := uint32(rng.Intn(5))
		if _, err := p.Insert(a, b, step); err != nil {
			t.Fatal(err)
		}
		if a > b {
			a, b = b, a
		}
		want[Pair{a, b, step}] = true
	}
	got := p.Items(nil)
	if len(got) != len(want) {
		t.Fatalf("Items returned %d pairs, want %d", len(got), len(want))
	}
	for _, pr := range got {
		if !want[pr] {
			t.Errorf("unexpected pair %+v", pr)
		}
	}
}

func TestPairSetConcurrentDuplicateInserts(t *testing.T) {
	// All goroutines insert the same pair; exactly one must observe
	// added == true. Run with -race.
	const goroutines = 64
	p := NewPairSet(16)
	var wg sync.WaitGroup
	addedCount := make(chan bool, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			added, err := p.Insert(7, 13, 2)
			if err != nil {
				t.Error(err)
				return
			}
			if added {
				addedCount <- true
			}
		}()
	}
	wg.Wait()
	close(addedCount)
	n := 0
	for range addedCount {
		n++
	}
	if n != 1 {
		t.Errorf("%d goroutines observed added=true, want exactly 1", n)
	}
	if p.Len() != 1 {
		t.Errorf("Len = %d, want 1", p.Len())
	}
}

func TestPairSetConcurrentMixedInserts(t *testing.T) {
	const n = 2000
	// Capacity for all 8·n draws with headroom below the 90% fail-fast
	// load limit.
	p := NewPairSet(16 * n)
	var wg sync.WaitGroup
	workers := 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := mathx.NewSplitMix64(uint64(w))
			for i := 0; i < n; i++ {
				a := int32(rng.Intn(500))
				b := int32(rng.Intn(500))
				if a == b {
					continue
				}
				if _, err := p.Insert(a, b, uint32(rng.Intn(3))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Every reported item must be unique and Len must agree.
	items := p.Items(nil)
	if len(items) != p.Len() {
		t.Errorf("Items %d != Len %d", len(items), p.Len())
	}
	seen := map[Pair]bool{}
	for _, pr := range items {
		if seen[pr] {
			t.Fatalf("duplicate stored pair %+v", pr)
		}
		seen[pr] = true
	}
}

func TestPairSetReset(t *testing.T) {
	p := NewPairSet(16)
	if _, err := p.Insert(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	p.Reset()
	if p.Len() != 0 || p.Contains(1, 2, 0) {
		t.Error("pair survived reset")
	}
}

func BenchmarkPairSetInsert(b *testing.B) {
	p := NewPairSet(2 * b.N)
	rng := mathx.NewSplitMix64(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := int32(rng.Intn(1 << 19))
		c := int32(rng.Intn(1 << 19))
		if a == c {
			c++
		}
		if _, err := p.Insert(a, c, uint32(i&0xFFFF)); err != nil {
			b.Fatal(err)
		}
	}
}
