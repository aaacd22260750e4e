package core

// The candidate layout: collectPairs hands every detector its candidates in
// (A, B, Step) order, and classifyPairs reads the runs of equal (A, B) off
// that order instead of hashing — each is pinned against the lookup it
// replaced.

import (
	"context"
	"testing"

	"repro/internal/filters"
	"repro/internal/lockfree"
	"repro/internal/pool"
)

// sampledHybridRun is a hybrid run over a seeded shell with every step
// sampled, ready for collectPairs.
func sampledHybridRun(t *testing.T) *run {
	t.Helper()
	sats := denseShellPopulation(1500, 21)
	cfg := Config{ThresholdKm: 2, DurationSeconds: 600, Workers: 2, Pool: pool.New()}
	r, err := newRun(context.Background(), cfg, sats, DefaultHybridSeconds, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.release)
	if err := r.sampleAllSteps(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCollectPairsAscendingInPackedKey(t *testing.T) {
	pairs := sampledHybridRun(t).collectPairs()
	if len(pairs) < 1000 {
		t.Fatalf("only %d candidates: the population is too sparse to test an order on", len(pairs))
	}
	for k := 1; k < len(pairs); k++ {
		prev, cur := pairs[k-1], pairs[k]
		if lockfree.PackPair(prev.A, prev.B, prev.Step) >= lockfree.PackPair(cur.A, cur.B, cur.Step) {
			t.Fatalf("candidates %d and %d out of order: %+v, %+v", k-1, k, prev, cur)
		}
	}
}

func TestClassifyPairsMatchesPairByPairClassify(t *testing.T) {
	r := sampledHybridRun(t)
	all := r.collectPairs()

	// One candidate per distinct pair, and all the candidates of the pair
	// flagged at the most steps.
	var distinct, longest []lockfree.Pair
	for lo, k := 0, 1; k <= len(all); k++ {
		if k == len(all) || all[k].A != all[lo].A || all[k].B != all[lo].B {
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

	for name, pairs := range map[string][]lockfree.Pair{
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
		for _, p := range pairs {
			key := lockfree.PackPair(p.A, p.B, 0)
			if _, seen := want[key]; !seen {
				a, b := &r.sats[r.idx[p.A]], &r.sats[r.idx[p.B]]
				want[key] = filters.Classify(a.Elements, b.Elements, r.cfg.Filters.WithThreshold(r.pairThreshold(p.A, p.B)))
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
			for _, p := range pairs[lo:dec.end] {
				if p.A != pairs[lo].A || p.B != pairs[lo].B {
					t.Fatalf("%s: run %d holds two pairs: %+v, %+v", name, i, pairs[lo], p)
				}
			}
			g := want[lockfree.PackPair(pairs[lo].A, pairs[lo].B, 0)]
			passing := 0
			for _, n := range g.Nodes {
				if g.Class == filters.NodeCrossing && n.Passes {
					passing++
				}
			}
			if dec.class != g.Class || len(dec.nodes) != passing {
				t.Fatalf("%s: run %d of %+v: class %v with %d node windows, Classify says %v with %d",
					name, i, pairs[lo], dec.class, len(dec.nodes), g.Class, passing)
			}
			lo = dec.end
		}
		if lo != len(pairs) {
			t.Fatalf("%s: the runs cover %d of %d candidates", name, lo, len(pairs))
		}
	}
}
