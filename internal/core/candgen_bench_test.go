package core

// Grouping one sampling step's objects by cell, per iteration over identical
// keys, so ns/op is directly the per-step cost, on the populations that use the
// grid in opposite ways — a 16k shell (16k cells of one object: the LEO-only
// shell-16k, maxIdx 765, and the catalogue-shaped kde-16k reaching GEO, maxIdx
// 4,593) and the debris cloud (1,500 objects in a few dense cells) — at one
// and two workers:
//
//   - Build_HashGrid: the paper's structure — reset + N concurrent CAS inserts
//     into a 2N-slot lockfree.GridSet + Freeze + sort of the frozen cells
//   - Build_Sort:     what the detectors run — N plain entry stores + sort +
//     group
//   - SortCells:      the sort alone
//   - Scan:           what a full screen's scan runs per step — sort + group +
//     sweep
//
// Both builds end with the same cells in the same order (sweep_test.go).
//
// And collecting a 60-step run's candidates, per iteration over identical
// per-worker key buffers:
//
//   - Collect_PairSet: the paper's structure — every key CAS-inserted into a
//     roomy lockfree.PairSet by the workers, drained in slot order, sorted
//   - Collect_Sort:    what the detectors run — concatenate, sort

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/lockfree"
	"repro/internal/orbit"
	"repro/internal/population"
	"repro/internal/propagation"
	"repro/internal/vec3"
)

// candgenPopulations are the benchmark's populations by name.
var candgenPopulations = map[string]func(b *testing.B) []propagation.Satellite{
	"shell-16k": func(b *testing.B) []propagation.Satellite { return benchShellPopulation(b, 16000) },
	"kde-16k": func(b *testing.B) []propagation.Satellite { // the bench harness's shell-grid-16k population
		sats, err := population.Generate(population.Config{N: 16000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		return sats
	},
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

// candgenRun builds a run with step 0 propagated and keyed into r.entries.
func candgenRun(b *testing.B, sats []propagation.Satellite, workers int) *run {
	b.Helper()
	cfg := Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: 60, Workers: workers}
	r, err := newRun(context.Background(), cfg, sats, cfg.SecondsPerSample, knotSeconds, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(r.release)
	if _, err := r.buildEntries(0, r.entries); err != nil {
		b.Fatal(err)
	}
	return r
}

// benchBuild times one step's build per iteration — what setup returns, given
// a run whose r.entries are step 0's and whose r.cellBuf is the sort buffer —
// and reports ns per object-step.
func benchBuild(b *testing.B, setup func(b *testing.B, r *run) (build func())) {
	for name, sats := range candgenPopulations {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers-%d", name, workers), func(b *testing.B) {
				r := candgenRun(b, sats(b), workers)
				build := setup(b, r)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					build()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(r.sats)), "ns/object-step")
			})
		}
	}
}

func BenchmarkBuild_HashGrid(b *testing.B) {
	benchBuild(b, func(b *testing.B, r *run) func() {
		from, n := r.entries, len(r.entries)
		gset, snap, spare := lockfree.NewGridSet(2*n, n), lockfree.NewGridSnapshot(2*n, n), make([]lockfree.Cell, n)
		insert := func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				if err := gset.Insert(from[i].Key, int32(i), from[i].Lo, vec3.Zero); err != nil {
					b.Error(err)
				}
			}
		}
		return func() {
			gset.Reset()
			_ = r.buildFork.do(r.ctx, r.workers, n, insert)
			snap.Freeze(gset, r.workers)
			sortedCellsSink = sortCells(snap.Cells(), r.cellBuf, spare, &r.sortHist)
		}
	})
}

func BenchmarkBuild_Sort(b *testing.B) {
	benchBuild(b, func(_ *testing.B, r *run) func() {
		from, n := r.entries, len(r.entries)
		entries, cells := make([]lockfree.Cell, n), make([]lockfree.Cell, n)
		store := func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				entries[i] = lockfree.Cell{Key: from[i].Key, Lo: from[i].Lo}
			}
		}
		return func() {
			_ = r.buildFork.do(r.ctx, r.workers, n, store)
			sortedCellsSink = groupCells(sortCells(entries, r.cellBuf, entries, &r.sortHist), cells)
		}
	})
}

// sortedCellsSink keeps the benchmarked call's result alive.
var sortedCellsSink []lockfree.Cell

// BenchmarkSortCells is the radix sort in isolation: warm buffers, one
// goroutine, a step's entries of each population, and the first 64, 256 and
// 1,024 of kde-16k's, the lists of delta passes. Measured on a 2-vCPU Xeon
// host: 13–18 ns per entry (the ns/cell metric) on all three populations — in
// a run the entries were last written by another core and it costs about
// twice that.
func BenchmarkSortCells(b *testing.B) {
	sortFirst := func(b *testing.B, r *run, n int) {
		spare := make([]lockfree.Cell, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sortedCellsSink = sortCells(r.entries[:n], r.cellBuf, spare, &r.sortHist)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/cell")
	}
	for name, sats := range candgenPopulations {
		b.Run(name, func(b *testing.B) {
			r := candgenRun(b, sats(b), 1)
			b.ResetTimer()
			sortFirst(b, r, len(r.entries))
		})
	}
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("kde-16k-first-%d", n), func(b *testing.B) {
			r := candgenRun(b, candgenPopulations["kde-16k"](b), 1)
			b.ResetTimer()
			sortFirst(b, r, n)
		})
	}
}

// BenchmarkScan is one full-screen step's scan as the detectors run it — sort,
// group, sweep into the per-worker buffers — on warm buffers, one goroutine,
// in ns per entry, with the candidates the radial gate kept per entry.
func BenchmarkScan(b *testing.B) {
	for name, sats := range candgenPopulations {
		b.Run(name, func(b *testing.B) {
			r := candgenRun(b, sats(b), 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.scanBufs[0] = r.scanBufs[0][:0]
				if res := r.scan(scanJob{entries: r.entries}); res.err != nil {
					b.Fatal(res.err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(r.entries)), "ns/entry")
			b.ReportMetric(float64(len(r.scanBufs[0]))/float64(len(r.entries)), "cands/entry")
		})
	}
}

// benchCollect times one collect per iteration — what setup returns, given a
// run whose 60 steps are sampled into r.scanBufs — and reports ns per candidate.
func benchCollect(b *testing.B, setup func(b *testing.B, r *run) (collect func())) {
	for name, sats := range candgenPopulations {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers-%d", name, workers), func(b *testing.B) {
				r := candgenRun(b, sats(b), workers)
				if err := r.sampleSteps(); err != nil {
					b.Fatal(err)
				}
				collect := setup(b, r)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					collect()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*r.candidates()), "ns/candidate")
			})
		}
	}
}

func BenchmarkCollect_PairSet(b *testing.B) {
	benchCollect(b, func(b *testing.B, r *run) func() {
		set := lockfree.NewPairSet(2 * r.candidates())
		insert := func(_, lo, hi int) {
			for _, buf := range r.scanBufs[lo:hi] {
				for _, key := range buf {
					if _, err := set.InsertPacked(key); err != nil {
						b.Error(err)
					}
				}
			}
		}
		var pairs []lockfree.Pair
		var keys []uint64
		return func() {
			set.Reset()
			_ = r.buildFork.do(r.ctx, r.workers, len(r.scanBufs), insert)
			pairs, keys = set.Items(pairs[:0]), keys[:0]
			for _, p := range pairs {
				keys = append(keys, lockfree.PackPair(p.A, p.B, p.Step))
			}
			sortPairsBySatellite(keys)
			sortedKeysSink = keys
		}
	})
}

func BenchmarkCollect_Sort(b *testing.B) {
	benchCollect(b, func(_ *testing.B, r *run) func() {
		return func() {
			r.pool.PutKeyBuf(r.keys)
			r.collectPairs()
			sortedKeysSink = r.keys
		}
	})
}

// sortedKeysSink keeps the benchmarked collect's result alive.
var sortedKeysSink []uint64
