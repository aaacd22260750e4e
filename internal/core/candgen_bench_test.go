package core

// Candidate generation over the frozen CSR snapshot. The benchmarks measure
// one full sampling step's candidate generation over an identical populated
// grid at fig10b scale (8,000 objects), so ns/op is directly the per-step
// detection cost:
//
//   - CSR:         freeze + scan + merge — what the detectors run
//   - CSRScanOnly: scan + merge alone, isolating the scan from the freeze
//     cost it pays for

import (
	"context"
	"testing"
)

const candgenObjects = 8000

// candgenRun builds a run with step 0 propagated and inserted, ready for
// repeated candidate scans.
func candgenRun(b *testing.B) *run {
	b.Helper()
	sats := benchShellPopulation(b, candgenObjects)
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

func BenchmarkCandidateGen_CSR(b *testing.B) {
	r := candgenRun(b)
	scratch := &scanScratch{}
	var keys []uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.pairs.Reset()
		r.snap.Freeze(r.gset, r.workers)
		keys = r.scanSnapshot(r.snap, 0, r.snap.Slots(), 0, keys[:0], scratch)
		for _, key := range keys {
			if _, err := r.pairs.InsertPacked(key); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkCandidateGen_CSRScanOnly(b *testing.B) {
	r := candgenRun(b)
	scratch := &scanScratch{}
	var keys []uint64
	r.snap.Freeze(r.gset, r.workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.pairs.Reset()
		keys = r.scanSnapshot(r.snap, 0, r.snap.Slots(), 0, keys[:0], scratch)
		for _, key := range keys {
			if _, err := r.pairs.InsertPacked(key); err != nil {
				b.Fatal(err)
			}
		}
	}
}
