package core

// Candidate generation over the frozen snapshot, one sampling step over an
// identical populated grid per iteration, so ns/op is directly the per-step
// cost, on the two populations that use the scan in opposite ways — the 16k
// shell (16k cells of one object, almost every neighbour absent) and the
// debris cloud (1,500 objects in a few dense cells):
//
//   - CSR:         freeze + sort + sweep + merge — what the detectors run
//   - CSRScanOnly: sort + sweep + merge, isolating the scan from the freeze
//   - SortCells:   the sort alone

import (
	"context"
	"testing"

	"repro/internal/lockfree"
	"repro/internal/orbit"
	"repro/internal/population"
	"repro/internal/propagation"
)

// candgenPopulations are the benchmark's two populations by name.
var candgenPopulations = map[string]func(b *testing.B) []propagation.Satellite{
	"shell-16k": func(b *testing.B) []propagation.Satellite { return benchShellPopulation(b, 16000) },
	"debris-1500": func(b *testing.B) []propagation.Satellite {
		frags, err := population.Fragmentation(population.FragmentationConfig{
			Parent:        orbit.Elements{SemiMajorAxis: 7100, Eccentricity: 0.001, Inclination: 1.7, RAAN: 1, ArgPerigee: 0.5, MeanAnomaly: 0.3},
			TimeOfBreakup: -6000, N: 1500, DeltaVKmS: 0.05, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return frags
	},
}

// candgenRun builds a run with step 0 propagated and inserted, ready for
// repeated candidate scans.
func candgenRun(b *testing.B, sats []propagation.Satellite) *run {
	b.Helper()
	cfg := Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: 60, Workers: 1}
	r, err := newRun(context.Background(), cfg, sats, cfg.SecondsPerSample, true, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(r.release)
	if err := r.buildGrid(0); err != nil {
		b.Fatal(err)
	}
	return r
}

// benchCandidateGen times the detectors' own generateCandidates per step,
// after a freeze when freeze is set.
func benchCandidateGen(b *testing.B, freeze bool) {
	for name, sats := range candgenPopulations {
		b.Run(name, func(b *testing.B) {
			r := candgenRun(b, sats(b))
			r.snap.Freeze(r.gset, r.workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer() // the run-sized pair set takes longer to clear than a step to scan
				r.pairs.Reset()
				b.StartTimer()
				if freeze {
					r.snap.Freeze(r.gset, r.workers)
				}
				if err := r.generateCandidates(r.snap, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCandidateGen_CSR(b *testing.B)         { benchCandidateGen(b, true) }
func BenchmarkCandidateGen_CSRScanOnly(b *testing.B) { benchCandidateGen(b, false) }

// sortedCellsSink keeps the benchmarked call's result alive.
var sortedCellsSink []lockfree.Cell

// BenchmarkSortCells is the radix sort in isolation: warm buffers, one
// goroutine. Budget: ≤ 25 ns per cell (the ns/cell metric) — in a run the
// cells were last written by another core and it costs about twice that.
func BenchmarkSortCells(b *testing.B) {
	for name, sats := range candgenPopulations {
		b.Run(name, func(b *testing.B) {
			r := candgenRun(b, sats(b))
			r.snap.Freeze(r.gset, r.workers)
			cells := r.snap.Cells()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := len(r.cellBuf) / 2
				sortedCellsSink = sortCells(cells, r.cellBuf[:n], r.cellBuf[n:], r.grid.MaxAbsCoord())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cells)), "ns/cell")
		})
	}
}
