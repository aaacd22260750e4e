// Package band partitions satellite populations into radial orbital bands —
// the shard-assignment layer of the sharded detectors (DESIGN.md §15).
//
// Each object occupies the padded radial interval
//
//	[perigee − pad, apogee + pad]
//
// and is resident in every band that interval touches (its halo replicas).
// With pad = d_eff/2, two objects whose shells come within the effective
// screening threshold d_eff of each other have overlapping padded intervals
// — the same geometric argument as the classical apogee/perigee filter
// (filters.ApogeePerigee splits the padding asymmetrically as d on one
// shell and 0 on the other; both forms test the identical shell-distance
// predicate). Band membership is monotone in radius, so an overlapping
// point z lands inside both objects' contiguous band ranges: every pair
// that can possibly conjunct shares at least one band.
//
// Ownership (the halo-exchange dedup rule): the pair (i, j) belongs to the
// single band max(Lo(i), Lo(j)). That band lies in both ranges exactly when
// the ranges intersect, so every co-resident pair is owned by exactly one
// band and cross-band pairs are reported exactly once.
//
// Band boundaries are quantiles of the population's interval start values,
// so resident counts stay balanced on clustered (KDE-like) populations;
// duplicate quantile values collapse, which shrinks the band count on
// degenerate same-altitude populations instead of creating empty bands.
//
// The assignment is computed from osculating perigee/apogee at epoch; like
// the orbital filter chain it assumes a propagator that preserves the
// radial extent (two-body, secular J2). See DESIGN.md §15 for the drag
// caveat.
package band

import (
	"sort"

	"repro/internal/propagation"
)

// Assignment maps each satellite of the partitioned population to its
// contiguous band range. The zero value is a single-band assignment.
type Assignment struct {
	cuts []float64 // ascending inner boundaries; len = bands − 1
	lo   []int32   // first band touched by sats[i]'s padded interval
	hi   []int32   // last band touched
}

// Partition assigns the population to at most `bands` radial bands, padding
// each object's [perigee, apogee] interval by padKm on both sides. bands ≤ 1
// (or a population smaller than bands' worth of distinct radii) yields a
// single-band assignment.
func Partition(sats []propagation.Satellite, bands int, padKm float64) *Assignment {
	n := len(sats)
	a := &Assignment{lo: make([]int32, n), hi: make([]int32, n)}
	if bands > n {
		bands = n
	}
	if bands <= 1 {
		return a
	}
	los := make([]float64, n)
	for i := range sats {
		los[i] = sats[i].Elements.PerigeeRadius() - padKm
	}
	sorted := append([]float64(nil), los...)
	sort.Float64s(sorted)
	cuts := make([]float64, 0, bands-1)
	for b := 1; b < bands; b++ {
		c := sorted[b*n/bands]
		// Strictly increasing cuts above the global minimum: duplicate
		// quantiles (clustered radii) and a cut at the minimum (which would
		// make band 0 resident-free) collapse the band count instead.
		if c > sorted[0] && (len(cuts) == 0 || c > cuts[len(cuts)-1]) {
			cuts = append(cuts, c)
		}
	}
	a.cuts = cuts
	for i := range sats {
		a.lo[i] = int32(bandOf(cuts, los[i]))
		a.hi[i] = int32(bandOf(cuts, sats[i].Elements.ApogeeRadius()+padKm))
	}
	return a
}

// bandOf returns the band containing radius v: the number of cuts ≤ v.
// Band b covers [cuts[b−1], cuts[b]); membership is monotone in v.
func bandOf(cuts []float64, v float64) int {
	return sort.Search(len(cuts), func(i int) bool { return cuts[i] > v })
}

// Bands returns the number of bands in the assignment.
func (a *Assignment) Bands() int { return len(a.cuts) + 1 }

// Lo returns the first band satellite i is resident in.
func (a *Assignment) Lo(i int) int { return int(a.lo[i]) }

// Hi returns the last band satellite i is resident in.
func (a *Assignment) Hi(i int) int { return int(a.hi[i]) }

// Resident reports whether satellite i is resident (owned or halo) in band b.
func (a *Assignment) Resident(i, b int) bool {
	return int(a.lo[i]) <= b && b <= int(a.hi[i])
}

// Owner returns the band that owns the pair (i, j): max(Lo(i), Lo(j)). The
// owner band is co-resident for both objects exactly when their band ranges
// intersect; pairs with disjoint ranges cannot conjunct and are owned by a
// band at most one of them occupies.
func (a *Assignment) Owner(i, j int) int {
	if a.lo[i] > a.lo[j] {
		return int(a.lo[i])
	}
	return int(a.lo[j])
}

// OwnerOfBands is Owner over precomputed lo-bands, for callers that track
// satellites by ID rather than population index.
func OwnerOfBands(loI, loJ int) int {
	if loI > loJ {
		return loI
	}
	return loJ
}

// ResidentCounts returns the number of residents (owned + halo) per band —
// the per-shard population sizes a sharded screen materialises.
func (a *Assignment) ResidentCounts() []int {
	counts := make([]int, a.Bands())
	for i := range a.lo {
		for b := a.lo[i]; b <= a.hi[i]; b++ {
			counts[b]++
		}
	}
	return counts
}
