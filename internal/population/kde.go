// Package population generates the synthetic satellite populations of §V-A:
// the joint distribution of semi-major axis and eccentricity is modelled by
// a bivariate Gaussian kernel density estimate seeded from the real 2021
// active-satellite catalogue's cluster structure (Fig. 9), and the remaining
// Kepler elements are drawn uniformly from the Table II ranges.
//
// Substitution note (DESIGN.md §7): the paper seeds its KDE from the
// Celestrak TLE list, which is proprietary-by-date network data. The seed
// set embedded here reproduces the catalogue's density landscape — the LEO
// bulk near a ≈ 7000 km / e ≈ 0.0025, the sun-synchronous and upper-LEO
// bands, the MEO navigation shells, GEO, and the GTO/HEO tail — which is
// what drives the hollow-sphere conjunction statistics of §III-B.
package population

import (
	"fmt"
	"math"

	"repro/internal/mathx"
)

// SeedPoint is one kernel centre of the (a, e) density model.
type SeedPoint struct {
	SemiMajorAxis float64 // km
	Eccentricity  float64
	Weight        float64 // relative population share
}

// CatalogSeed is the embedded cluster model of the April 2021 active
// catalogue (Fig. 9): weights approximate each band's share of objects.
var CatalogSeed = []SeedPoint{
	// LEO bulk: Starlink shells and smallsat swarms, the Fig. 9 hot spot.
	{6928, 0.0015, 14}, // ~550 km
	{6950, 0.0025, 18},
	{6985, 0.0020, 12},
	{7025, 0.0030, 9},
	// Sun-synchronous Earth-observation band (~700–900 km).
	{7080, 0.0025, 8},
	{7150, 0.0020, 7},
	{7230, 0.0015, 5},
	// Upper LEO (constellation + legacy, ~1000–1500 km).
	{7400, 0.0040, 4},
	{7600, 0.0100, 2.5},
	{7900, 0.0050, 1.5},
	// MEO navigation shells (GPS/Galileo/GLONASS).
	{25500, 0.0050, 1.2},
	{26560, 0.0080, 1.6},
	{29600, 0.0030, 0.8},
	// GEO belt.
	{42164, 0.0003, 2.2},
	// GTO / HEO tail.
	{24400, 0.7200, 0.9},
	{26550, 0.7000, 0.6},
}

// KDE2D is a weighted bivariate Gaussian kernel density estimate over
// (semi-major axis, eccentricity).
type KDE2D struct {
	points      []SeedPoint
	cumWeights  []float64 // cumulative, normalised to totalWeight
	totalWeight float64
	// BandwidthA and BandwidthE are the kernel standard deviations per
	// dimension (km and dimensionless).
	BandwidthA float64
	BandwidthE float64
}

// NewKDE builds a KDE from seed points with the given bandwidths.
func NewKDE(points []SeedPoint, bandwidthA, bandwidthE float64) (*KDE2D, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("population: KDE needs at least one seed point")
	}
	if bandwidthA <= 0 || bandwidthE <= 0 {
		return nil, fmt.Errorf("population: bandwidths must be positive (got %g, %g)", bandwidthA, bandwidthE)
	}
	k := &KDE2D{points: points, BandwidthA: bandwidthA, BandwidthE: bandwidthE}
	k.cumWeights = make([]float64, len(points))
	for i, p := range points {
		if p.Weight <= 0 {
			return nil, fmt.Errorf("population: seed point %d has non-positive weight %g", i, p.Weight)
		}
		k.totalWeight += p.Weight
		k.cumWeights[i] = k.totalWeight
	}
	return k, nil
}

// DefaultKDE returns the embedded catalogue model with bandwidths tuned to
// blur the discrete seeds into the continuous Fig. 9 landscape.
func DefaultKDE() *KDE2D {
	k, err := NewKDE(CatalogSeed, 35, 0.0012)
	if err != nil {
		panic(err) // impossible: the embedded seed is valid
	}
	return k
}

// Sample draws one (a, e) pair: a seed point selected by weight plus
// Gaussian kernel noise.
func (k *KDE2D) Sample(rng *mathx.SplitMix64) (a, e float64) {
	target := rng.Float64() * k.totalWeight
	// Binary search the cumulative weights.
	lo, hi := 0, len(k.cumWeights)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if k.cumWeights[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	p := k.points[lo]
	return p.SemiMajorAxis + k.BandwidthA*rng.NormFloat64(),
		p.Eccentricity + k.BandwidthE*rng.NormFloat64()
}

// Density evaluates the KDE at (a, e) — the Fig. 9 heat-map surface.
func (k *KDE2D) Density(a, e float64) float64 {
	const inv2pi = 1 / (2 * math.Pi)
	sum := 0.0
	for _, p := range k.points {
		da := (a - p.SemiMajorAxis) / k.BandwidthA
		de := (e - p.Eccentricity) / k.BandwidthE
		sum += p.Weight * math.Exp(-0.5*(da*da+de*de))
	}
	return sum * inv2pi / (k.BandwidthA * k.BandwidthE * k.totalWeight)
}

// DensityGrid evaluates the density over a regular na×ne grid spanning
// [aMin,aMax]×[eMin,eMax]; row index = eccentricity bin, column index =
// semi-major-axis bin. Used by the Fig. 9 reproduction.
func (k *KDE2D) DensityGrid(aMin, aMax float64, na int, eMin, eMax float64, ne int) [][]float64 {
	grid := make([][]float64, ne)
	for r := 0; r < ne; r++ {
		grid[r] = make([]float64, na)
		e := eMin + (eMax-eMin)*(float64(r)+0.5)/float64(ne)
		for c := 0; c < na; c++ {
			a := aMin + (aMax-aMin)*(float64(c)+0.5)/float64(na)
			grid[r][c] = k.Density(a, e)
		}
	}
	return grid
}
