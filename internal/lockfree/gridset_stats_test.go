package lockfree

import (
	"sync"
	"testing"

	"repro/internal/hash"
	"repro/internal/mathx"
	"repro/internal/vec3"
)

// Stats coverage: the probe/insert numbers feed the slot-factor ablation
// (DESIGN.md §5) and the paperbench occupancy tables, so their arithmetic is
// pinned here. Insert counts nothing; Stats reads both off the table.

func TestGridSetStatsExactCounters(t *testing.T) {
	g := NewGridSet(1024, 16) // roomy table: no probe chains expected
	for i := int32(0); i < 8; i++ {
		if err := g.Insert(uint64(i)+1, i, i, vec3.Zero); err != nil {
			t.Fatal(err)
		}
	}
	st := g.Stats()
	if st.Inserts != 8 {
		t.Errorf("Inserts = %d, want 8", st.Inserts)
	}
	if st.Probes < st.Inserts {
		t.Errorf("Probes = %d < Inserts = %d: every insert probes at least once", st.Probes, st.Inserts)
	}
	if st.OccupiedSlot != 8 {
		t.Errorf("OccupiedSlot = %d, want 8 (distinct cells)", st.OccupiedSlot)
	}
	if want := float64(st.Probes) / float64(st.Inserts); st.AvgProbes != want { //lint:floateq-ok — exact ratio of the same integers
		t.Errorf("AvgProbes = %v, want Probes/Inserts = %v", st.AvgProbes, want)
	}
}

func TestGridSetStatsSameCellInserts(t *testing.T) {
	// Re-inserting into an existing cell still counts an insert and at least
	// one probe, but occupies no new slot.
	g := NewGridSet(64, 8)
	for i := int32(0); i < 5; i++ {
		if err := g.Insert(42, i, i, vec3.Zero); err != nil {
			t.Fatal(err)
		}
	}
	st := g.Stats()
	if st.Inserts != 5 || st.OccupiedSlot != 1 {
		t.Errorf("Inserts = %d, OccupiedSlot = %d; want 5 inserts into 1 slot", st.Inserts, st.OccupiedSlot)
	}
}

func TestGridSetStatsProbeChainsUnderLoad(t *testing.T) {
	// A near-full table forces linear-probe chains: total probes must exceed
	// inserts and AvgProbes must reflect it.
	g := NewGridSet(64, 64)
	slots := g.Slots()
	for i := 0; i < slots-1; i++ {
		if err := g.Insert(uint64(i)+1, int32(i), int32(i), vec3.Zero); err != nil {
			t.Fatal(err)
		}
	}
	st := g.Stats()
	if st.Probes <= st.Inserts {
		t.Errorf("Probes = %d, Inserts = %d: a %d/%d full table must chain",
			st.Probes, st.Inserts, slots-1, slots)
	}
	if st.AvgProbes <= 1 {
		t.Errorf("AvgProbes = %v, want > 1 under load", st.AvgProbes)
	}
}

func TestGridSetStatsMatchHandCount(t *testing.T) {
	// Count inserts and probe steps by hand — a plain open-addressing model
	// of the Insert walk (Eq. 2), one probe per slot inspected — over crowded
	// tables with repeated cell keys, and demand the table walk report the
	// same totals, after sequential and after concurrent insertion (the
	// probes of an insertion depend only on where its key ends up, and keys
	// that arrive in the same order end up in the same slots).
	const n = 300
	rng := mathx.NewSplitMix64(17)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64() % 120 // ~2.5 satellites per cell
	}
	g := NewGridSet(128, n) // ~110 cells in 128 slots: long probe chains
	model := make([]uint64, g.Slots())
	for i := range model {
		model[i] = EmptySlot
	}
	var wantInserts, wantProbes uint64
	for i, k := range keys {
		wantInserts++
		for slot := hash.Mix64(k) & g.mask; ; slot = (slot + 1) & g.mask {
			wantProbes++
			if model[slot] == EmptySlot {
				model[slot] = k
			}
			if model[slot] == k {
				break
			}
		}
		if err := g.Insert(k, int32(i), int32(i), vec3.Zero); err != nil {
			t.Fatal(err)
		}
	}
	if wantProbes < 2*wantInserts {
		t.Fatalf("model counted %d probes for %d inserts: table not crowded enough to test chains", wantProbes, wantInserts)
	}
	check := func(phase string) {
		t.Helper()
		if st := g.Stats(); st.Inserts != wantInserts || st.Probes != wantProbes {
			t.Errorf("%s: Stats = %d inserts / %d probes, hand count %d / %d", phase, st.Inserts, st.Probes, wantInserts, wantProbes)
		}
	}
	check("sequential")

	// Concurrent re-run: seat each cell key first, in the model's order, so
	// every key owns the same slot; then race the remaining insertions.
	g.Reset()
	seated := map[uint64]bool{}
	var rest []int
	for i, k := range keys {
		if seated[k] {
			rest = append(rest, i)
			continue
		}
		seated[k] = true
		if err := g.Insert(k, int32(i), int32(i), vec3.Zero); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(rest); j += 4 {
				i := rest[j]
				if err := g.Insert(keys[i], int32(i), int32(i), vec3.Zero); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	check("concurrent")
}

func TestGridSetStatsEmpty(t *testing.T) {
	g := NewGridSet(16, 4)
	st := g.Stats()
	if st.Inserts != 0 || st.Probes != 0 || st.AvgProbes != 0 || st.OccupiedSlot != 0 {
		t.Errorf("stats of an empty set = %+v, want all zero", st)
	}
}

func TestGridSetResetClearsCounters(t *testing.T) {
	g := NewGridSet(64, 8)
	for i := int32(0); i < 8; i++ {
		if err := g.Insert(uint64(i)+1, i, i, vec3.Zero); err != nil {
			t.Fatal(err)
		}
	}
	g.Reset()
	st := g.Stats()
	if st.Inserts != 0 || st.Probes != 0 || st.AvgProbes != 0 {
		t.Errorf("counters after reset = %+v, want zero", st)
	}
}
