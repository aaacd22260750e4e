package band

import (
	"slices"
	"testing"

	"repro/internal/filters"
	"repro/internal/population"
	"repro/internal/propagation"
)

func testPopulation(t *testing.T, n int, seed uint64) []propagation.Satellite {
	t.Helper()
	sats, err := population.Generate(population.Config{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return sats
}

// TestPartitionCoversApogeePerigeePairs pins the soundness property the
// sharded detectors rely on: with pad = d/2, every pair the classical
// apogee/perigee filter keeps (shells within d) shares at least one band,
// and that shared band is exactly the Owner band.
func TestPartitionCoversApogeePerigeePairs(t *testing.T) {
	const d = 25.0 // wide threshold so plenty of pairs pass the shell filter
	for _, bands := range []int{2, 5, 16} {
		for seed := uint64(1); seed <= 3; seed++ {
			sats := testPopulation(t, 300, seed)
			a := Partition(sats, bands, d/2)
			kept := 0
			for i := 0; i < len(sats); i++ {
				for j := i + 1; j < len(sats); j++ {
					if !filters.ApogeePerigee(sats[i].Elements, sats[j].Elements, d) {
						continue
					}
					kept++
					owner := a.Owner(i, j)
					if !a.Resident(i, owner) || !a.Resident(j, owner) {
						t.Fatalf("bands=%d seed=%d: pair (%d,%d) passes ApogeePerigee(d=%g) "+
							"but owner band %d is not co-resident (ranges [%d,%d] and [%d,%d])",
							bands, seed, i, j, d, owner, a.Lo(i), a.Hi(i), a.Lo(j), a.Hi(j))
					}
				}
			}
			if kept == 0 {
				t.Fatalf("bands=%d seed=%d: no pairs passed the shell filter; test is vacuous", bands, seed)
			}
		}
	}
}

// TestOwnerUniquePerPair checks the exactly-once rule: enumerating every
// band's co-resident pairs and keeping only owned ones visits each
// range-intersecting pair exactly once.
func TestOwnerUniquePerPair(t *testing.T) {
	sats := testPopulation(t, 200, 7)
	a := Partition(sats, 8, 5)
	seen := map[[2]int]int{}
	for b := 0; b < a.Bands(); b++ {
		for i := 0; i < len(sats); i++ {
			if !a.Resident(i, b) {
				continue
			}
			for j := i + 1; j < len(sats); j++ {
				if a.Resident(j, b) && a.Owner(i, j) == b {
					seen[[2]int{i, j}]++
				}
			}
		}
	}
	intersecting := 0
	for i := 0; i < len(sats); i++ {
		for j := i + 1; j < len(sats); j++ {
			lo, hi := a.Lo(i), a.Hi(i)
			if a.Lo(j) > lo {
				lo = a.Lo(j)
			}
			if a.Hi(j) < hi {
				hi = a.Hi(j)
			}
			if lo > hi {
				continue // disjoint ranges: never co-resident, never owned
			}
			intersecting++
			if seen[[2]int{i, j}] != 1 {
				t.Fatalf("pair (%d,%d) owned %d times, want exactly 1", i, j, seen[[2]int{i, j}])
			}
		}
	}
	if intersecting == 0 || intersecting != len(seen) {
		t.Fatalf("owned-pair count %d != range-intersecting count %d", len(seen), intersecting)
	}
	if a.Bands() < 2 {
		t.Fatalf("partition collapsed to %d band(s); test is vacuous", a.Bands())
	}
}

// TestOwnerOfBandsMatchesOwner pins the ID-keyed helper against the
// index-keyed method.
func TestOwnerOfBandsMatchesOwner(t *testing.T) {
	sats := testPopulation(t, 100, 3)
	a := Partition(sats, 6, 2)
	for i := 0; i < len(sats); i++ {
		for j := i + 1; j < len(sats); j++ {
			if got, want := OwnerOfBands(a.Lo(i), a.Lo(j)), a.Owner(i, j); got != want {
				t.Fatalf("OwnerOfBands(%d,%d)=%d, Owner=%d", a.Lo(i), a.Lo(j), got, want)
			}
		}
	}
}

// TestPartitionBalance: quantile boundaries keep band populations within a
// small factor of each other on the KDE catalogue model, and the halo
// (resident minus owned) stays a small fraction at kilometre pads.
func TestPartitionBalance(t *testing.T) {
	sats := testPopulation(t, 4000, 1)
	const bands = 8
	a := Partition(sats, bands, 1)
	if a.Bands() != bands {
		t.Fatalf("Bands() = %d, want %d", a.Bands(), bands)
	}
	counts := a.ResidentCounts()
	total := 0
	for b, c := range counts {
		if c == 0 {
			t.Fatalf("band %d has no residents: %v", b, counts)
		}
		total += c
	}
	maxC := slices.Max(counts)
	if maxC > 4*len(sats)/bands {
		t.Fatalf("largest band holds %d of %d objects across %d bands — quantile balance lost: %v",
			maxC, len(sats), bands, counts)
	}
	// Halo replication: residents exceed the population only by the objects
	// straddling boundaries. At a 1 km pad on a 4000-object catalogue this
	// must stay well below one extra copy per object.
	if total > len(sats)*2 {
		t.Fatalf("total residents %d vs population %d — halo replication exploded", total, len(sats))
	}
}

// TestPartitionDegenerate: same-altitude populations collapse to one band,
// and tiny or single-band requests yield the trivial assignment.
func TestPartitionDegenerate(t *testing.T) {
	// A Walker shell: identical semi-major axis and eccentricity for every
	// object, so all padded intervals coincide.
	sats, err := population.Walker(population.WalkerConfig{
		Planes: 10, PerPlane: 10, AltitudeKm: 550, InclinationRad: 0.9, PhasingSlots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := Partition(sats, 8, 1)
	if a.Bands() != 1 {
		t.Fatalf("same-altitude shell split into %d bands, want 1", a.Bands())
	}
	for i := range sats {
		if a.Lo(i) != 0 || a.Hi(i) != 0 {
			t.Fatalf("sat %d assigned [%d,%d], want [0,0]", i, a.Lo(i), a.Hi(i))
		}
	}

	kde := testPopulation(t, 50, 2)
	if got := Partition(kde, 1, 1).Bands(); got != 1 {
		t.Fatalf("bands=1 request produced %d bands", got)
	}
	if got := Partition(kde, 0, 1).Bands(); got != 1 {
		t.Fatalf("bands=0 request produced %d bands", got)
	}
	if got := Partition(nil, 4, 1); got.Bands() != 1 || got.ResidentCounts()[0] != 0 {
		t.Fatalf("empty population: Bands=%d ResidentCounts=%v", got.Bands(), got.ResidentCounts())
	}
}
