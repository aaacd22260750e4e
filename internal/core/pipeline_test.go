package core

// The full-screen step loop's ring: how many buffers and goroutines a run
// draws for it, that every exit hands them back, and that objects crossing the
// cube's faces mid-window enter and leave the entry buffer as they should.

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"

	"repro/internal/lockfree"
	"repro/internal/pool"
	"repro/internal/spatial"
)

// goroutineCeiling is an Observer that fails the test when a sampling step
// completes with more goroutines alive than max.
type goroutineCeiling struct {
	t   *testing.T
	max int
}

func (g goroutineCeiling) OnStep(s StepInfo) {
	if n := runtime.NumGoroutine(); n > g.max {
		g.t.Errorf("step %d: %d goroutines alive, %d before the run", s.Step, n, g.max)
	}
}

func (goroutineCeiling) OnPhase(PhaseInfo) {}

// TestFullScreenPoolDraw: a one-worker run draws one entry buffer and starts no goroutine, a two-worker run draws the
// ring's second slot, either draws the scan's sort buffer and histograms and,
// with knots (1 s steps), the knot-interval listing's boxes, histograms, list
// and marks, and every exit — completion, cancellation at step k — hands back
// what it drew.
func TestFullScreenPoolDraw(t *testing.T) {
	sats := denseShellPopulation(400, 13)
	base := Config{ThresholdKm: 2, SecondsPerSample: 1, DurationSeconds: 60}
	exits := map[string]func(t *testing.T, cfg Config){
		"completed": func(t *testing.T, cfg Config) {
			if cfg.Workers == 1 {
				cfg.Observer = goroutineCeiling{t: t, max: runtime.NumGoroutine()}
			}
			if _, err := newGrid(cfg).Screen(sats); err != nil {
				t.Fatal(err)
			}
		},
		"cancelled": func(t *testing.T, cfg Config) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg.Observer = &cancelAtStep{at: 5, cancel: cancel}
			if _, err := newHybrid(cfg).ScreenContext(ctx, sats); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		},
	}
	for _, workers := range []int{1, 2} {
		for name, exit := range exits {
			t.Run(map[int]string{1: "one-slot/", 2: "two-slot/"}[workers]+name, func(t *testing.T) {
				pl := pool.New()
				cfg := base
				cfg.Workers, cfg.Pool = workers, pl
				exit(t, cfg)
				if out := pl.Stats().Outstanding(); out != 0 {
					t.Fatalf("%d pooled structures outstanding", out)
				}
				// What the run drew is what it put back: empty the free lists,
				// counting.
				drained := func(get func()) (drawn int) {
					for {
						before := pl.Stats().Hits
						get()
						if pl.Stats().Hits == before {
							return drawn
						}
						drawn++
					}
				}
				if drawn := drained(func() { pl.GetCellBuf(1) }); drawn != workers+2 {
					t.Errorf("the run drew %d cell buffers, want a ring of %d, the scan's one and the listing's boxes", drawn, workers)
				}
				if drawn := drained(func() { pl.GetInt32Buf(histLen) }); drawn != 2 {
					t.Errorf("the run drew %d histogram buffers, want the scan's and the listing join's", drawn)
				}
				if drawn := drained(func() { pl.GetInt32Buf(len(sats)) }); drawn != 1 {
					t.Errorf("the run drew %d list buffers, want the listing's", drawn)
				}
				if drawn := drained(func() { pl.GetBitset(bitsetWords(int32(len(sats) - 1))) }); drawn != 1 {
					t.Errorf("the run drew %d bitsets, want the listing's marks", drawn)
				}
			})
		}
	}
}

// TestScreenAtCubeEdge: in a cube the shell pokes through, objects leave and
// re-enter all window long. Step by step the candidates are the by-definition
// reference over the objects inside, OnStep's GridEntries counts exactly those,
// and OutOfBounds the rest — on one worker, and on four with either ring. With
// every object outside at every step a screen emits nothing.
func TestScreenAtCubeEdge(t *testing.T) {
	const span, sps = 900.0, 1.0
	sats := denseShellPopulation(200, 7) // IDs are population indices
	// The gate is off: the reference is the sweep's by definition, every
	// cell-adjacent pair; TestRadialGateIsRecordExact covers the gate.
	base := Config{ThresholdKm: 40, SecondsPerSample: sps, DurationSeconds: span, halfExtentKm: 6000, ablation: ablation{noGate: true}}
	newTestRun := func(cfg Config) *run {
		cfg.Pool = pool.New()
		r, err := newRun(context.Background(), cfg, sats, sps, knotSeconds, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.release)
		return r
	}

	// The reference takes its positions from the build kernel of a run of its
	// own, in step order, so they are bit for bit the screened ones.
	ref := newTestRun(base)
	var want []uint64
	inside := make([]int, ref.steps)
	var left, entered bool
	wasIn := make([]bool, len(sats))
	for step := 0; step < ref.steps; step++ {
		var coords []spatial.Coord
		var who []int32
		for i := range sats {
			_, c, ok := ref.positionAt(i, step)
			if ok {
				coords, who = append(coords, c), append(who, sats[i].ID)
			}
			if step > 0 && ok != wasIn[i] {
				left, entered = left || !ok, entered || ok
			}
			wasIn[i] = ok
		}
		inside[step] = len(who)
		for _, key := range referencePairs(ref.grid, coords) {
			p := lockfree.UnpackPair(key)
			want = append(want, lockfree.PackPair(who[p.A], who[p.B], uint32(step)))
		}
	}
	sortPairsBySatellite(want)
	if !left || !entered || len(want) < 100 {
		t.Fatalf("left %v, entered %v, %d reference candidates: the window does not exercise the cube's faces", left, entered, len(want))
	}

	for name, c := range map[string]struct {
		workers int
		oneSlot bool
	}{
		"workers-1":          {1, false},
		"workers-4-one-slot": {4, true},
		"workers-4-two-slot": {4, false},
	} {
		t.Run(name, func(t *testing.T) {
			obs := &stepRecorder{}
			cfg := base
			cfg.Workers, cfg.ablation.oneSlotRing, cfg.Observer = c.workers, c.oneSlot, obs
			r := newTestRun(cfg)
			if err := r.sampleAllSteps(); err != nil {
				t.Fatal(err)
			}
			if got := r.keys; !slices.Equal(got, want) {
				t.Fatalf("%d candidates, reference has %d", len(got), len(want))
			}
			oob := uint64(0)
			for step, s := range obs.steps {
				oob += uint64(len(sats) - inside[step])
				if s.Step != step || s.GridEntries != inside[step] || s.OutOfBounds < oob {
					t.Fatalf("OnStep call %d = %+v, want %d grid entries and at least %d out of bounds", step, s, inside[step], oob)
				}
			}
			if len(obs.steps) != r.steps || r.finishStats().OutOfBounds != oob {
				t.Fatalf("%d OnStep calls over %d steps, OutOfBounds = %d, want %d", len(obs.steps), r.steps, r.finishStats().OutOfBounds, oob)
			}
		})
	}

	t.Run("everything-outside", func(t *testing.T) {
		obs := &stepRecorder{}
		cfg := base
		cfg.DurationSeconds, cfg.halfExtentKm, cfg.Workers, cfg.Observer, cfg.Pool = 20, 1000, 2, obs, pool.New()
		res, err := newGrid(cfg).Screen(sats)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.CandidatePairs != 0 || len(res.Conjunctions) != 0 || res.Stats.OutOfBounds != uint64(21*len(sats)) {
			t.Fatalf("stats %+v: want no candidate and every sample out of bounds", res.Stats)
		}
		for _, s := range obs.steps {
			if s.GridEntries != 0 {
				t.Fatalf("OnStep %+v: want no grid entries", s)
			}
		}
	})
}
