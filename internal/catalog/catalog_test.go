package catalog

import (
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/orbit"
	"repro/internal/propagation"
)

// sat builds a valid satellite with a distinguishable mean anomaly so tests
// can tell an original from an updated copy.
func sat(id int32, ma float64) propagation.Satellite {
	return propagation.MustSatellite(id, orbit.Elements{
		SemiMajorAxis: 7000,
		Eccentricity:  0.001,
		Inclination:   0.5,
		MeanAnomaly:   ma,
	})
}

func ids(sats []propagation.Satellite) map[int32]float64 {
	out := make(map[int32]float64, len(sats))
	for i := range sats {
		out[sats[i].ID] = sats[i].Elements.MeanAnomaly
	}
	return out
}

func TestCatalogVersioningAndCopyOnWrite(t *testing.T) {
	epoch0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	c, err := New([]propagation.Satellite{sat(1, 0.1), sat(2, 0.2)}, epoch0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Version(); got != 1 {
		t.Fatalf("initial version = %d, want 1", got)
	}
	v1 := c.Latest()
	v1Sats := v1.Satellites()

	epoch1 := epoch0.Add(24 * time.Hour)
	rev, err := c.ApplyDelta(Delta{
		Epoch:   epoch1,
		Adds:    []propagation.Satellite{sat(3, 0.3)},
		Updates: []propagation.Satellite{sat(2, 2.2)},
		Removes: []int32{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rev.Version() != 2 || c.Version() != 2 {
		t.Fatalf("delta produced version %d (catalog %d), want 2", rev.Version(), c.Version())
	}
	if !rev.Epoch().Equal(epoch1) {
		t.Fatalf("epoch = %v, want %v", rev.Epoch(), epoch1)
	}

	// The old handle still sees the old state (copy-on-write stability).
	got := ids(v1Sats)
	if len(got) != 2 || got[1] != 0.1 || got[2] != 0.2 {
		t.Fatalf("version-1 view changed under a delta: %v", got)
	}
	got = ids(rev.Satellites())
	if len(got) != 2 || got[2] != 2.2 || got[3] != 0.3 {
		t.Fatalf("version-2 view wrong: %v", got)
	}

	// A zero delta epoch keeps the previous revision's epoch.
	rev3, err := c.ApplyDelta(Delta{Adds: []propagation.Satellite{sat(4, 0.4)}})
	if err != nil {
		t.Fatal(err)
	}
	if !rev3.Epoch().Equal(epoch1) {
		t.Fatalf("zero-epoch delta changed epoch to %v", rev3.Epoch())
	}

	// At() serves retained revisions.
	if r, ok := c.At(2); !ok || r.Version() != 2 {
		t.Fatalf("At(2) = %v, %v", r, ok)
	}
	if _, ok := c.At(99); ok {
		t.Fatal("At(99) reported ok for an unknown version")
	}

	// An update-only delta and an add-only delta each copy the elements into
	// an array of their own: the earlier revision reads as it did.
	for _, d := range []Delta{
		{Updates: []propagation.Satellite{sat(3, 3.3), sat(4, 4.4)}},
		{Adds: []propagation.Satellite{sat(5, 0.5), sat(6, 0.6)}},
	} {
		before := c.Latest()
		want := slices.Clone(before.Satellites())
		after, err := c.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(before.Satellites(), want) {
			t.Fatalf("version %d changed under delta %d", before.Version(), after.Version())
		}
		if sharesArray(before.Satellites(), after.Satellites()) {
			t.Fatalf("versions %d and %d share a backing array", before.Version(), after.Version())
		}
		got := ids(after.Satellites())
		for _, s := range append(d.Updates, d.Adds...) {
			if got[s.ID] != s.Elements.MeanAnomaly {
				t.Fatalf("version %d: ID %d has mean anomaly %v, want %v", after.Version(), s.ID, got[s.ID], s.Elements.MeanAnomaly)
			}
		}
		if len(got) != before.Len()+len(d.Adds) {
			t.Fatalf("version %d holds %d objects, want %d", after.Version(), len(got), before.Len()+len(d.Adds))
		}
	}
}

// sharesArray reports whether a and b overlap anywhere in their capacity.
func sharesArray(a, b []propagation.Satellite) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	size := unsafe.Sizeof(a[0])
	a0, b0 := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(cap(b))*size && b0 < a0+uintptr(cap(a))*size
}

func TestCatalogDeltaValidation(t *testing.T) {
	c, err := New([]propagation.Satellite{sat(1, 0.1), sat(2, 0.2)}, time.Time{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		d    Delta
	}{
		{"add existing", Delta{Adds: []propagation.Satellite{sat(1, 9)}}},
		{"update unknown", Delta{Updates: []propagation.Satellite{sat(9, 9)}}},
		{"remove unknown", Delta{Removes: []int32{9}}},
		{"update and remove same ID", Delta{Updates: []propagation.Satellite{sat(2, 9)}, Removes: []int32{2}}},
		{"double add", Delta{Adds: []propagation.Satellite{sat(5, 1), sat(5, 2)}}},
	}
	for _, tc := range cases {
		if _, err := c.ApplyDelta(tc.d); err == nil {
			t.Errorf("%s: delta accepted", tc.name)
		}
	}
	if c.Version() != 1 {
		t.Fatalf("rejected deltas bumped the version to %d", c.Version())
	}
	if _, err := New([]propagation.Satellite{sat(1, 0), sat(1, 1)}, time.Time{}, Options{}); err == nil {
		t.Fatal("duplicate IDs accepted in the initial population")
	}
}

func TestDirtyBetweenReconcilesChurn(t *testing.T) {
	c, err := New([]propagation.Satellite{sat(1, 0.1), sat(2, 0.2), sat(3, 0.3)}, time.Time{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// v2: update 1, remove 2.
	if _, err := c.ApplyDelta(Delta{Updates: []propagation.Satellite{sat(1, 1.1)}, Removes: []int32{2}}); err != nil {
		t.Fatal(err)
	}
	// v3: add 4, remove 1 (updated then removed → must end up removed).
	if _, err := c.ApplyDelta(Delta{Adds: []propagation.Satellite{sat(4, 0.4)}, Removes: []int32{1}}); err != nil {
		t.Fatal(err)
	}
	// v4: re-add 2 (removed then re-added → must end up dirty).
	if _, err := c.ApplyDelta(Delta{Adds: []propagation.Satellite{sat(2, 2.2)}}); err != nil {
		t.Fatal(err)
	}

	rev, dirty, removed, ok := c.DirtySince(1)
	if !ok || rev.Version() != 4 {
		t.Fatalf("DirtySince(1): rev=%v ok=%v", rev.Version(), ok)
	}
	wantDirty := []int32{2, 4}
	wantRemoved := []int32{1}
	if len(dirty) != len(wantDirty) || dirty[0] != wantDirty[0] || dirty[1] != wantDirty[1] {
		t.Fatalf("dirty = %v, want %v", dirty, wantDirty)
	}
	if len(removed) != 1 || removed[0] != wantRemoved[0] {
		t.Fatalf("removed = %v, want %v", removed, wantRemoved)
	}

	// Window (2,4]: v3 added 4 and removed 1; v4 re-added 2.
	_, dirty, removed, ok = c.DirtySince(2)
	if !ok || len(dirty) != 2 || dirty[0] != 2 || dirty[1] != 4 || len(removed) != 1 || removed[0] != 1 {
		t.Fatalf("DirtySince(2) = dirty %v removed %v ok %v", dirty, removed, ok)
	}
	// Identity window.
	_, dirty, removed, ok = c.DirtySince(4)
	if !ok || len(dirty) != 0 || len(removed) != 0 {
		t.Fatalf("DirtySince(4) = %v, %v, %v", dirty, removed, ok)
	}
	// Versions the catalogue never had: before the first, past the latest.
	for _, v := range []Version{0, 5} {
		if _, _, _, ok := c.DirtySince(v); ok {
			t.Fatalf("DirtySince(%d) reported ok", v)
		}
	}
}

func TestCatalogRetentionBounds(t *testing.T) {
	c, err := New(nil, time.Time{}, Options{KeepRevisions: 2, KeepJournal: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < 6; i++ {
		if _, err := c.ApplyDelta(Delta{Adds: []propagation.Satellite{sat(i, float64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	// Versions 1..7 exist; only the last 2 revisions are materialised.
	if _, ok := c.At(5); ok {
		t.Fatal("revision 5 should be pruned with KeepRevisions=2")
	}
	if r, ok := c.At(6); !ok || r.Len() != 5 {
		t.Fatalf("revision 6: ok=%v len=%d", ok, r.Len())
	}
	// Journal keeps 3 entries: versions (4,7] answerable, (3,7] not, though
	// revision 4 itself is pruned.
	if _, _, _, ok := c.DirtySince(4); !ok {
		t.Fatal("DirtySince(4) should be answerable with KeepJournal=3")
	}
	if _, _, _, ok := c.DirtySince(3); ok {
		t.Fatal("DirtySince(3) should fall past the journal")
	}
}

// TestCatalogConcurrentReadersAndWriter drives deltas while readers hold and
// re-validate revision handles; run under -race this checks the
// copy-on-write discipline has no mutation of published state.
func TestCatalogConcurrentReadersAndWriter(t *testing.T) {
	c, err := New([]propagation.Satellite{sat(0, 0)}, time.Time{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rev := c.Latest()
				sats := rev.Satellites()
				sum := 0.0
				for i := range sats {
					sum += sats[i].Elements.MeanAnomaly
				}
				_ = sum
				if _, _, _, ok := c.DirtySince(rev.Version()); !ok {
					t.Error("window from a held revision not answerable")
					return
				}
			}
		}()
	}
	for i := int32(1); i <= 64; i++ {
		if _, err := c.ApplyDelta(Delta{Adds: []propagation.Satellite{sat(i, float64(i))}}); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if c.Version() != 65 {
		t.Fatalf("version = %d, want 65", c.Version())
	}
}
