package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/mathx"
	"repro/internal/pool"
	"repro/internal/propagation"
)

// TestPipelinedScreenConcurrentRaceStress stresses the two-slot ring:
// Workers >= 2 gives sampleSteps a scan goroutine that sorts one ring slot's
// entries while the build workers write the next step's into the other.
// Concurrent runs share one pool (entry, sort and candidate buffers recycle
// across runs), and a randomised cancellation timer is armed on most runs so
// the drain-on-every-exit-path logic — the join of the in-flight scan before
// release() — is exercised under -race at every point of the step loop
// (`make race` repeats it fifty times). Every outcome must be a correct result
// or context.Canceled, and the pool must balance once the stampede drains.
// Style follows lockfree/race_test.go.
func TestPipelinedScreenConcurrentRaceStress(t *testing.T) {
	sats := engineeredPopulation(t)
	windows := []struct {
		duration float64
		events   int
	}{
		{500, 1},
		{900, 2},
		{1400, 3},
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const itersPerWorker = 3

	p := pool.New()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var cancelled, completed int
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := mathx.NewSplitMix64(uint64(4000 + g))
			for iter := 0; iter < itersPerWorker; iter++ {
				w := windows[(g+iter)%len(windows)]
				det := newGrid(Config{
					ThresholdKm:      2,
					SecondsPerSample: 1,
					DurationSeconds:  w.duration,
					Workers:          2, // >= 2: the ring gets its second slot
					Pool:             p,
				})
				ctx, cancel := context.WithCancel(context.Background())
				// Most runs arm a cancellation timer at a pseudo-random
				// point; every third run is left uncancelled so complete
				// pipelined runs also execute under contention.
				var timer *time.Timer
				if iter%3 != 0 {
					delay := time.Duration(rng.Intn(60)) * time.Millisecond
					timer = time.AfterFunc(delay, cancel)
				}
				res, err := det.ScreenContext(ctx, append([]propagation.Satellite(nil), sats...))
				if timer != nil {
					timer.Stop()
				}
				cancel()
				switch {
				case err == nil && res != nil:
					if got := len(res.Events(10)); got != w.events {
						t.Errorf("goroutine %d window %.0fs: %d events, want %d", g, w.duration, got, w.events)
					}
					mu.Lock()
					completed++
					mu.Unlock()
				case errors.Is(err, context.Canceled) && res == nil:
					mu.Lock()
					cancelled++
					mu.Unlock()
				default:
					t.Errorf("goroutine %d: res=%v err=%v, want a result or context.Canceled", g, res, err)
				}
			}
		}(g)
	}
	wg.Wait()

	if completed == 0 {
		t.Error("no pipelined run ever completed under contention")
	}
	t.Logf("outcomes: %d cancelled, %d completed", cancelled, completed)
	if out := p.Stats().Outstanding(); out != 0 {
		t.Errorf("pool left %d structures outstanding after pipelined stress", out)
	}
	if p.Stats().Hits == 0 {
		t.Error("pipelined runs never reused a pooled structure")
	}
}

// TestMotionTableConcurrentRaceStress stresses the motion test's shared
// state: at 1 s steps (knot stride 16) four scan workers read the knots the
// build rewrites at each knot step, which joins the scan in flight first; at
// 20 s steps (no knots) they compute, publish and read the motion table's rows
// at once. Several such runs draw from one pool, and most arm a randomised
// cancellation (`make race` repeats it fifty times). Every screen that
// completes must return the single-worker screen's list bit for bit, with its
// counters, and the pool must balance once the runs drain.
func TestMotionTableConcurrentRaceStress(t *testing.T) {
	sats := gatePopulations(t)["debris-1500"].sats[:300]
	for _, c := range []struct {
		name      string
		sps, span float64
		stride    int
	}{{"knots", 1, 90, 16}, {"table", 20, 600, 1}} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{ThresholdKm: 2, SecondsPerSample: c.sps, DurationSeconds: c.span, Workers: 1}
			want, err := newGrid(cfg).Screen(sats)
			if err != nil {
				t.Fatal(err)
			}
			if want.Stats.MotionGated == 0 || len(want.Conjunctions) == 0 || want.Stats.KnotStride != c.stride {
				t.Fatalf("vacuous: %d motion-gated, %d records, stride %d", want.Stats.MotionGated, len(want.Conjunctions), want.Stats.KnotStride)
			}
			motionStress(t, cfg, sats, want)
		})
	}
}

// motionStress is TestMotionTableConcurrentRaceStress's body for one
// configuration: three goroutines, three screens each, on four workers.
func motionStress(t *testing.T, cfg Config, sats []propagation.Satellite, want *Result) {
	p := pool.New()
	cfg.Workers, cfg.Pool = 4, p
	var wg sync.WaitGroup
	var mu sync.Mutex
	var cancelled, completed int
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := mathx.NewSplitMix64(uint64(5000 + g))
			for iter := 0; iter < 3; iter++ {
				ctx, cancel := context.WithCancel(context.Background())
				var timer *time.Timer
				if iter%3 != 0 {
					timer = time.AfterFunc(time.Duration(rng.Intn(40))*time.Millisecond, cancel)
				}
				res, err := newGrid(cfg).ScreenContext(ctx, sats)
				if timer != nil {
					timer.Stop() // a timer left armed fires in a later test, one goroutine more
				}
				cancel()
				switch {
				case err == nil:
					assertSameBits(t, "4 workers vs 1", res.Conjunctions, want.Conjunctions)
					if res.Stats.CandidatePairs != want.Stats.CandidatePairs || res.Stats.MotionGated != want.Stats.MotionGated {
						t.Errorf("goroutine %d: %d kept, %d motion-gated; one worker: %d, %d", g,
							res.Stats.CandidatePairs, res.Stats.MotionGated, want.Stats.CandidatePairs, want.Stats.MotionGated)
					}
					mu.Lock()
					completed++
					mu.Unlock()
				case errors.Is(err, context.Canceled):
					mu.Lock()
					cancelled++
					mu.Unlock()
				default:
					t.Errorf("goroutine %d: %v, want a result or context.Canceled", g, err)
				}
			}
		}(g)
	}
	wg.Wait()
	t.Logf("outcomes: %d cancelled, %d completed", cancelled, completed)
	if completed == 0 {
		t.Error("no screen completed")
	}
	if out := p.Stats().Outstanding(); out != 0 {
		t.Errorf("pool left %d structures outstanding", out)
	}
}
