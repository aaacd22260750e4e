package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/mathx"
	"repro/internal/pool"
	"repro/internal/propagation"
	"repro/internal/vec3"
)

func randomBox(rng *mathx.SplitMix64) aabbBox {
	c := vec3.V{
		X: rng.UniformRange(-100, 100),
		Y: rng.UniformRange(-100, 100),
		Z: rng.UniformRange(-100, 100),
	}
	e := vec3.V{
		X: rng.UniformRange(0.5, 30),
		Y: rng.UniformRange(0.5, 30),
		Z: rng.UniformRange(0.5, 30),
	}
	return aabbBox{min: c.Sub(e), max: c.Add(e)}
}

func TestAABBBoxOverlapsBruteForce(t *testing.T) {
	rng := mathx.NewSplitMix64(99)
	overlap1D := func(alo, ahi, blo, bhi float64) bool { return alo <= bhi && blo <= ahi }
	for trial := 0; trial < 2000; trial++ {
		a, b := randomBox(rng), randomBox(rng)
		want := overlap1D(a.min.X, a.max.X, b.min.X, b.max.X) &&
			overlap1D(a.min.Y, a.max.Y, b.min.Y, b.max.Y) &&
			overlap1D(a.min.Z, a.max.Z, b.min.Z, b.max.Z)
		if got := a.overlaps(&b); got != want {
			t.Fatalf("trial %d: overlaps=%v want %v (a=%+v b=%+v)", trial, got, want, a, b)
		}
		if a.overlaps(&b) != b.overlaps(&a) {
			t.Fatalf("trial %d: overlaps not symmetric", trial)
		}
	}
}

func TestAABBBoxHullAndPad(t *testing.T) {
	rng := mathx.NewSplitMix64(7)
	pts := make([]vec3.V, 24)
	for i := range pts {
		pts[i] = vec3.V{X: rng.UniformRange(-50, 50), Y: rng.UniformRange(-50, 50), Z: rng.UniformRange(-50, 50)}
	}
	b := aabbBox{min: pts[0], max: pts[0]}
	for _, p := range pts[1:] {
		b.expand(p)
	}
	b.pad(2.5)
	for i, p := range pts {
		if p.X < b.min.X+2.5-1e-12 || p.X > b.max.X-2.5+1e-12 ||
			p.Y < b.min.Y+2.5-1e-12 || p.Y > b.max.Y-2.5+1e-12 ||
			p.Z < b.min.Z+2.5-1e-12 || p.Z > b.max.Z-2.5+1e-12 {
			t.Fatalf("point %d outside the unpadded hull", i)
		}
	}
}

// treeOverlapping traverses the tree for box i and collects every j > i
// whose box overlaps it — the same walk windowQueryRange does, minus the
// step post-check.
func treeOverlapping(tr *aabbTree, i int) map[int32]bool {
	out := map[int32]bool{}
	if len(tr.nodes) == 0 {
		return out
	}
	q := &tr.boxes[i]
	stack := []int32{0}
	for len(stack) > 0 {
		nd := &tr.nodes[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		if !q.overlaps(&nd.box) {
			continue
		}
		if nd.left >= 0 {
			stack = append(stack, nd.left, nd.right)
			continue
		}
		for _, j := range tr.items[nd.start:nd.end] {
			if int(j) > i && q.overlaps(&tr.boxes[j]) {
				out[j] = true
			}
		}
	}
	return out
}

// TestAABBTreeQueryMatchesBruteForce: over random box sets of several sizes
// (empty, below leaf size, and multi-level), the tree's overlap enumeration
// must equal the O(n²) scan exactly.
func TestAABBTreeQueryMatchesBruteForce(t *testing.T) {
	rng := mathx.NewSplitMix64(123)
	var tr aabbTree
	for _, n := range []int{0, 1, 5, 8, 9, 64, 300} {
		boxes := make([]aabbBox, n)
		for i := range boxes {
			boxes[i] = randomBox(rng)
		}
		tr.build(boxes) // reused tree object: the cross-window reuse path
		for i := 0; i < n; i++ {
			got := treeOverlapping(&tr, i)
			for j := i + 1; j < n; j++ {
				want := boxes[i].overlaps(&boxes[j])
				if got[int32(j)] != want {
					t.Fatalf("n=%d pair (%d,%d): tree=%v brute=%v", n, i, j, got[int32(j)], want)
				}
			}
		}
	}
}

// TestAABBMatchesGridReference is the variant's own differential check (the
// registry loops in the battery and oracle cover it too): several AABB
// configurations against the fine grid on the seeded encounter population,
// plus a co-orbital companion 0.8 km off its first object, so even the
// shortest span has an encounter. The spans place the window seams: 1801
// steps end on a partial window of nine at W = 16, 1600 steps on a full one,
// and 3 steps are a single window shorter than W.
func TestAABBMatchesGridReference(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config differential screen; skipped with -short")
	}
	const span, threshold = 1800.0, 2.0
	sats := seededEncounterPopulation(42, span)
	sats = append(sats, propagation.MustSatellite(int32(len(sats)), companionOf(sats[0], 1)))
	references := map[float64][]Conjunction{}

	warmPool := pool.New()
	configs := map[string]Config{
		"default":       {ThresholdKm: threshold, DurationSeconds: span, Workers: 2},
		"single-worker": {ThresholdKm: threshold, DurationSeconds: span, Workers: 1},
		"windows-whole": {ThresholdKm: threshold, DurationSeconds: 1599, Workers: 2},
		"window-3":      {ThresholdKm: threshold, DurationSeconds: 2, Workers: 2},
		"coarse-step":   {ThresholdKm: threshold, DurationSeconds: span, SecondsPerSample: 4, Workers: 2},
		"warm-pool":     {ThresholdKm: threshold, DurationSeconds: span, Workers: 2, Pool: warmPool},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			reference, ok := references[cfg.DurationSeconds]
			if !ok {
				ref, err := newGrid(Config{ThresholdKm: threshold, SecondsPerSample: 1, DurationSeconds: cfg.DurationSeconds, Workers: 2}).Screen(sats)
				if err != nil {
					t.Fatal(err)
				}
				if reference = ref.Events(10); len(reference) == 0 {
					t.Fatalf("no grid reference event over %v s", cfg.DurationSeconds)
				}
				references[cfg.DurationSeconds] = reference
			}
			det := newAABB(cfg)
			if cfg.Pool != nil { // prime the pool so the second run recycles
				if _, err := det.Screen(sats); err != nil {
					t.Fatal(err)
				}
			}
			res, err := det.Screen(sats)
			if err != nil {
				t.Fatal(err)
			}
			if res.Variant != VariantAABB {
				t.Errorf("result variant %q", res.Variant)
			}
			assertEventsAgree(t, name, res.Events(10), reference, 10.0, 0.2)
		})
	}
	if out := warmPool.Stats().Outstanding(); out != 0 {
		t.Errorf("warm pool left %d structures outstanding", out)
	}
}

// TestAABBPoolBalancedOnCancel: a run cancelled mid-sampling (from the
// observer callback, i.e. while pooled structures are live) and a run
// cancelled before it starts must both return every pooled structure.
func TestAABBPoolBalancedOnCancel(t *testing.T) {
	const span = 1800.0
	sats := seededEncounterPopulation(5, span)

	t.Run("mid-run", func(t *testing.T) {
		pl := pool.New()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		obs := ObserverFuncs{Step: func(StepInfo) { cancel() }}
		det := newAABB(Config{ThresholdKm: 2, DurationSeconds: span, Workers: 2, Pool: pl, Observer: obs})
		_, err := det.ScreenContext(ctx, sats)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if out := pl.Stats().Outstanding(); out != 0 {
			t.Fatalf("cancelled run left %d structures outstanding", out)
		}
	})
	t.Run("pre-cancelled", func(t *testing.T) {
		pl := pool.New()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		det := newAABB(Config{ThresholdKm: 2, DurationSeconds: span, Workers: 2, Pool: pl})
		if _, err := det.ScreenContext(ctx, sats); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if out := pl.Stats().Outstanding(); out != 0 {
			t.Fatalf("pre-cancelled run left %d structures outstanding", out)
		}
	})
}

// TestAABBDegeneratePopulations mirrors the grid contract on trivial inputs.
func TestAABBDegeneratePopulations(t *testing.T) {
	det := newAABB(Config{ThresholdKm: 2, DurationSeconds: 600})
	res, err := det.Screen(nil)
	if err != nil || len(res.Conjunctions) != 0 {
		t.Fatalf("empty population: res=%v err=%v", res, err)
	}
	if res.Variant != VariantAABB {
		t.Errorf("degenerate result variant %q", res.Variant)
	}
	if _, err := newAABB(Config{ThresholdKm: 2}).Screen(nil); !errors.Is(err, ErrNoDuration) {
		t.Fatalf("missing duration: err=%v, want ErrNoDuration", err)
	}
}
