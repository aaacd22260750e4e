package core

// The candidate layout: collectPairs hands every detector its candidates as
// packed keys in (A, B, Step) order, and classifyPairs reads the runs of equal
// (A, B) off that order instead of hashing — each is pinned against the lookup
// it replaced.

import (
	"context"
	"testing"

	"repro/internal/filters"
	"repro/internal/lockfree"
	"repro/internal/pool"
)

// sampledHybridRun is a hybrid run over a seeded shell with every step
// sampled and the candidates collected into r.keys. The gate is off: these
// tests are of the list's order and its runs, which the gate only thins.
func sampledHybridRun(t *testing.T) *run {
	t.Helper()
	sats := denseShellPopulation(1500, 21)
	cfg := Config{ThresholdKm: 2, DurationSeconds: 600, Workers: 2, Pool: pool.New(), ablation: ablation{noGate: true}}
	r, err := newRun(context.Background(), cfg, sats, DefaultHybridSeconds, knotSeconds, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.release)
	if err := r.sampleAllSteps(); err != nil {
		t.Fatal(err)
	}
	return r
}

// stepless is a candidate key with its step cleared: the pair's identity, as
// the unpacked fields give it (classifyPairs compares bits instead).
func stepless(key uint64) uint64 {
	p := lockfree.UnpackPair(key)
	return lockfree.PackPair(p.A, p.B, 0)
}

func TestCollectPairsAscendingInPackedKey(t *testing.T) {
	pairs := sampledHybridRun(t).keys
	if len(pairs) < 1000 {
		t.Fatalf("only %d candidates: the population is too sparse to test an order on", len(pairs))
	}
	for k := 1; k < len(pairs); k++ {
		if pairs[k-1] >= pairs[k] {
			t.Fatalf("candidates %d and %d out of order: %+v, %+v", k-1, k, lockfree.UnpackPair(pairs[k-1]), lockfree.UnpackPair(pairs[k]))
		}
	}
}

func TestClassifyPairsMatchesPairByPairClassify(t *testing.T) {
	r := sampledHybridRun(t)
	all := r.keys

	// One candidate per distinct pair, and all the candidates of the pair
	// flagged at the most steps.
	var distinct, longest []uint64
	for lo, k := 0, 1; k <= len(all); k++ {
		if k == len(all) || stepless(all[k]) != stepless(all[lo]) {
			distinct = append(distinct, all[lo])
			if k-lo > len(longest) {
				longest = all[lo:k]
			}
			lo = k
		}
	}
	if len(distinct) == len(all) || len(longest) < 2 {
		t.Fatalf("%d candidates over %d pairs: no pair was flagged twice", len(all), len(distinct))
	}

	for name, pairs := range map[string][]uint64{
		"seeded population":   all,
		"every pair distinct": distinct,
		"a single run":        longest,
		"empty":               nil,
	} {
		r.stats.FilterStats = filters.Stats{}
		decs, err := r.classifyPairs(pairs)
		if err != nil {
			t.Fatal(err)
		}
		// The reference: the filter chain called pair by pair, each distinct
		// pair found through a map, as classification did before the sort.
		want := map[uint64]filters.Geometry{}
		var wantStats filters.Stats
		for _, k := range pairs {
			p, key := lockfree.UnpackPair(k), stepless(k)
			if _, seen := want[key]; !seen {
				a, b := &r.sats[r.idx[p.A]], &r.sats[r.idx[p.B]]
				want[key] = filters.Classify(a.Elements, b.Elements, filters.Config{ThresholdKm: r.pairThreshold(p.A, p.B)})
				wantStats.Add(want[key])
			}
		}
		if len(decs) != len(want) {
			t.Fatalf("%s: %d decisions for %d distinct pairs", name, len(decs), len(want))
		}
		if r.stats.FilterStats != wantStats {
			t.Errorf("%s: FilterStats %+v, pair by pair %+v", name, r.stats.FilterStats, wantStats)
		}
		lo := 0
		for i, dec := range decs {
			if dec.end <= lo || dec.end > len(pairs) {
				t.Fatalf("%s: decision %d ends at %d after %d", name, i, dec.end, lo)
			}
			for _, k := range pairs[lo:dec.end] {
				if stepless(k) != stepless(pairs[lo]) {
					t.Fatalf("%s: run %d holds two pairs: %+v, %+v", name, i, lockfree.UnpackPair(pairs[lo]), lockfree.UnpackPair(k))
				}
			}
			if g := want[stepless(pairs[lo])]; dec.class != g.Class {
				t.Fatalf("%s: run %d of %+v: class %v, Classify says %v",
					name, i, lockfree.UnpackPair(pairs[lo]), dec.class, g.Class)
			}
			lo = dec.end
		}
		if lo != len(pairs) {
			t.Fatalf("%s: the runs cover %d of %d candidates", name, lo, len(pairs))
		}
	}
}
